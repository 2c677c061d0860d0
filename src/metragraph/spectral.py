"""Eigenvalue problem for the Laplacian with a fixed reference measure.

At frequency gamma, every solution of the edge-wise eigen-equation
f'' + gamma^2 f = gamma^2 C g (g the measure's polynomial edge density, C
the Lebesgue integral of f over the whole graph) has the form
A cos(gamma t) + B sin(gamma t) + C h(t), with h a polynomial particular
solution.  Continuity at each vertex, one derivative-balance condition per
vertex, and the vanishing of the integral of f against the measure yield a
square homogeneous system M(gamma) of size 2m+1; eigenvalues are
lambda = gamma^2 exactly where M(gamma) is singular, with multiplicity the
nullspace dimension.  Every edge integral at a given gamma (trig moments of
the densities and of products of edge solutions) comes from one batched
moment kernel, _exp_moments, called once for all edges: integration by parts
in closed form where omega*L is large, and otherwise a power series summed
as each row's real power table x^j / j! times one fixed complex table.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import green as green_mod
from .graph_core import PointOnGraph, ValidationError, subdivide_at, total_length
from .measure import integrate_polys_against, remap_measure
from .numerics import (
    DEFAULT_RANK_TOL,
    DEFAULT_ROOT_TOL,
    NumericError,
    equilibrate_rows,
    golden_min,  # noqa: F401  (perfbench/tracing.py wraps spectral.golden_min)
    nullspace_basis,
    polyval_rows,
    shift_polys,
)

DEFAULT_GAMMA_FLOOR = 1e-6  # in units of 1 / total length
GOLDEN_CUT = (math.sqrt(5.0) - 1.0) / 2.0
ZERO_ROW_REL = 1e-10
SECANT_MAX_ITER = 100
MAX_EIGENVALUES = 100_000  # per find_eigenvalues call, counted before any bisection
# a stacked count or secant step takes at most MAX_BATCH gammas, fewer when
# their stack of matrices would exceed MAX_STACK_ENTRIES, so memory stays flat
MAX_BATCH = 64
MAX_STACK_ENTRIES = 1 << 18

# Features of M(gamma): two global ones, then per edge the trig values, the
# derivative factors, h(0), h(L), h'(0), -h'(L) and the integral of h*d for
# the particular solution h, and the trig moments of the density d.
_ONE, _G2 = 0, 1
(_COS, _SIN, _G, _GSIN, _MGCOS, _H0, _HL, _HP0, _MHPL, _HD,
 _CMOM, _SMOM) = range(12)
_EDGE_FEATURES = 12


def _derivative(coeffs):
    """Ascending coefficients of p' along the last axis, at least one."""
    if coeffs.shape[-1] < 2:
        return np.zeros(coeffs.shape[:-1] + (1,))
    return coeffs[..., 1:] * np.arange(1.0, coeffs.shape[-1])


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
    """I[e, k] = integral of t^k exp(i omega_e t) over [0, L_e], k = 0..count,
    for every row of omega and lengths (broadcast) at once.

    The closed form from integration by parts cancels catastrophically when
    omega*L is small relative to k, so each (row, k) picks between it and a
    power series in (i omega); the crossover omega*L >= k+1 keeps the
    upward recursion's error amplification factor k/(omega*L) below 1.  The
    series is I_k = L^(k+1) sum_j P[j] C[j, k]: a real power table
    P[j] = x^j / j! per row (x = omega*L) times _series_table's C, taken as a
    stacked (1 x J) @ (J x count+1) product per row, which, unlike one gemm
    over all rows, gives each row the same bits whatever else is in the batch.
    """
    omega, L = np.broadcast_arrays(np.ravel(omega), np.ravel(lengths))
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
        P = np.cumprod(np.concatenate((np.ones_like(xs), xs * (1.0 / j[1:])), axis=1), axis=1)
        P[j >= 40.0 + np.ceil(7.5 * xs)] = 0.0
        series = (P[:, None, :] @ _series_table(count)[:j.size])[:, 0]
        series *= L[rows, None] ** np.arange(1.0, count + 2.0)
        out[rows] = np.where(closed[rows], out[rows], series)
    return out


def _particular_table(dens):
    """P[e, :, j], the coefficients of s^j in the particular solution
    h_e = sum_j s^j (-1)^j d_e^(2j) (s = 1 / gamma^2) of each density row d_e,
    zero-padded to the width of dens; the sum stops where the repeated
    second derivative of the highest power present vanishes."""
    top = np.max(np.nonzero(dens)[1], initial=-1)
    table = np.zeros(dens.shape + (top // 2 + 1,))
    term = dens
    for j in range(table.shape[2]):
        table[:, :term.shape[1], j] = (-1.0) ** j * term
        term = _derivative(_derivative(term))
    return table


def _row_products(a, b):
    """Row-wise products of the ascending polynomials in a and b."""
    out = np.zeros((len(a), a.shape[1] + b.shape[1] - 1))
    for i in range(a.shape[1]):
        out[:, i:i + b.shape[1]] += a[:, [i]] * b
    return out


def _overlap(dens, lengths):
    """Row p: coefficients in y of the integral over [0, y] of d(t) d(t + L - y)
    dt (d = dens[p], L = lengths[p]), from d(t + s) = sum_q s^q d^(q)(t) / q!."""
    out = np.zeros((len(dens), 2 * dens.shape[1]))
    taylor, shift = dens, np.ones((len(dens), 1))  # d^(q) / q!, (L - y)^q
    for q in range(dens.shape[1]):
        prod = _row_products(taylor, dens)
        anti = np.pad(prod / np.arange(1, prod.shape[1] + 1), ((0, 0), (1, 0)))
        out += _row_products(shift, anti)
        taylor = _derivative(taylor) / (q + 1)
        shift = _row_products(shift, np.column_stack((lengths, -np.ones_like(lengths))))
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
    value, derivative and at_point take the caller's (unsplit) points too.
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

    def _on_pieces(self, method, edge_id, t):
        """method at offsets t along a caller's edge split into pieces."""
        def one(s):
            p = functools.reduce(lambda q, remap: remap(q), self.remaps,
                                 PointOnGraph(edge_id, float(s)))
            if p.edge == edge_id:
                raise KeyError(edge_id)
            return method(p.edge, p.offset)
        return np.vectorize(one, otypes=[float])(t)

    def value(self, edge_id, t):
        if edge_id not in self.edges:
            return self._on_pieces(self.value, edge_id, t)
        k = self.edges[edge_id]
        A, B = self.ab[k]
        t = np.asarray(t, dtype=float)
        h = npoly.polyval(t, self.h[k])
        return A * np.cos(self.gamma * t) + B * np.sin(self.gamma * t) \
            + self.constant * h

    def derivative(self, edge_id, t):
        if edge_id not in self.edges:
            return self._on_pieces(self.derivative, edge_id, t)
        k = self.edges[edge_id]
        A, B = self.ab[k]
        g = self.gamma
        t = np.asarray(t, dtype=float)
        hp = npoly.polyval(t, npoly.polyder(self.h[k]))
        return -A * g * np.sin(g * t) + B * g * np.cos(g * t) \
            + self.constant * hp

    def at_point(self, point):
        return float(self.value(point.edge, point.offset))

    def sup_norm(self, graph, samples_per_edge=64):
        """Grid estimate of the supremum norm."""
        worst = 0.0
        for e in graph.edges:
            t = np.linspace(0.0, e.length, samples_per_edge)
            worst = max(worst, float(np.max(np.abs(self.value(e.id, t)))))
        return worst


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
    """Assembles M(gamma) for one (graph, reference measure) pair.

    Interior atoms force subdivisions so that every atom of the working
    measure sits at a vertex; the unknown vector is ordered
    (A_1, B_1, ..., A_m, B_m, C) following the working graph's edge order.
    bases keeps find_eigenvalues' nullspace bases by (root, rank_tol), and
    count its EigenvalueCount.
    """

    def __init__(self, graph, mu):
        mu.require_reference()
        work, measure, self.remaps = graph, mu, ()
        while True:
            interior = [p for p, _ in measure.atoms if work.vertex_of(p) is None]
            if not interior:
                break
            work, _, remap = subdivide_at(work, interior[0])
            self.remaps += (remap,)
            measure = remap_measure(measure, work, remap)
        self.graph = work
        self.mu = measure
        self.bases = {}
        self.edges = work.edges
        self._row = {e.id: k for k, e in enumerate(self.edges)}
        self._col = {eid: 2 * k for eid, k in self._row.items()}
        self.size = 2 * len(self.edges) + 1
        self._atom_mass = {}
        for p, mass in measure.atoms:
            v = work.vertex_of(p)
            if v is None:
                raise NumericError("atom strictly inside an edge after subdivision")
            self._atom_mass[v] = self._atom_mass.get(v, 0.0) + float(np.real(mass))
        tags = []
        for v in work.vertices:
            tags.extend([f"continuity@{v}"] * (len(work.incidences(v)) - 1))
            tags.append(f"derivative@{v}")
        tags.append("integral")
        self.row_tags = tuple(tags)
        self._compile()

    @functools.cached_property
    def count(self):
        """The problem's EigenvalueCount, built on first use."""
        return EigenvalueCount(self)

    def particulars(self, gamma):
        """The particular solutions at gamma, one zero-padded row per edge."""
        return self._ptab @ (1.0 / (gamma * gamma)) ** np.arange(self._ptab.shape[2])

    def matrix(self, gamma):
        """Row-equilibrated M(gamma)."""
        scaled, _ = equilibrate_rows(self._assemble(gamma))
        return scaled

    def nullspace(self, gamma, rank_tol=DEFAULT_RANK_TOL):
        """Nullspace vectors of M(gamma), robust to rows that vanish there.

        A whole raw row can vanish at a degenerate root (the integral row
        does when an atom-only measure produces a double eigenvalue), and
        per-row equilibration would rescale its numerical noise to unit
        size, hiding one nullspace dimension.  Near-zero rows are therefore
        dropped before the remaining rows are equilibrated and the rank
        decision is made.
        """
        raw = self._assemble(gamma)
        rowmax = np.max(np.abs(raw), axis=1)
        keep = rowmax > ZERO_ROW_REL * float(np.max(rowmax))
        if not np.any(keep):
            return nullspace_basis(np.zeros((1, self.size)), rank_tol)
        reduced, _ = equilibrate_rows(raw[keep])
        return nullspace_basis(reduced, rank_tol)

    def _compile(self):
        """Scatter plan of M(gamma) in split form, M = sum_j f_j(gamma) A_j.

        Each structural nonzero becomes (flat index row*N + col, feature,
        coefficient); _assemble evaluates the features at gamma and scatters
        coefficient * feature with one bincount.  Entries are listed in the
        order the rows accumulate, so repeated indices sum in a fixed order.
        """
        N, ccol = self.size, self.size - 1
        # h = sum_j s^j P_j with s = 1/gamma^2 and P = _ptab; _hpoly[:, :, j]
        # holds h(0), h(L), h'(0), -h'(L) and the integral of h*d for P_j.
        # Constant densities get closed-form trig moments, the rows _poly of
        # _dens batched ones.
        self._lengths = L = np.array([e.length for e in self.edges])
        self._dens = dens = self.mu.arrays[3]
        poly = np.any(dens[:, 1:] != 0.0, axis=1)
        self._poly, self._d0 = np.flatnonzero(poly), np.where(poly, 0.0, dens[:, 0])
        self._ptab = P = _particular_table(dens)
        K = dens.shape[1]
        self._hpoly = np.zeros((len(L), 5, P.shape[2]))
        for j in range(P.shape[2]):
            h = P[:, :, j]
            hp = _derivative(h)
            prod = _row_products(h, dens)
            integral = polyval_rows(prod / np.arange(1, prod.shape[1] + 1), L) * L
            self._hpoly[:, :, j] = np.stack(
                (h[:, 0], polyval_rows(h, L), hp[:, 0], -polyval_rows(hp, L), integral), axis=1)

        def feature(k, j):
            return 2 + _EDGE_FEATURES * k + j

        val, der = {}, {}  # (edge id, end) -> features of the A, B, C columns
        for k, e in enumerate(self.edges):
            val[(e.id, 0)] = (_ONE, None, feature(k, _H0))
            val[(e.id, 1)] = (feature(k, _COS), feature(k, _SIN), feature(k, _HL))
            der[(e.id, 0)] = (None, feature(k, _G), feature(k, _HP0))
            der[(e.id, 1)] = (feature(k, _GSIN), feature(k, _MGCOS),
                              feature(k, _MHPL))
        entries = []

        def put(r, e, feats, coef):
            c = self._col[e.id]
            for col, feat in zip((c, c + 1, ccol), feats):
                if feat is not None:
                    entries.append((r * N + col, feat, coef))

        r = 0
        for v in self.graph.vertices:
            inc = self.graph.incidences(v)
            e0, end0 = inc[0]
            for e, end in inc[1:]:
                put(r, e, val[(e.id, end)], 1.0)
                put(r, e0, val[(e0.id, end0)], -1.0)
                r += 1
            for e, end in inc:
                put(r, e, der[(e.id, end)], 1.0)
            if self._atom_mass.get(v, 0.0):
                entries.append((r * N + ccol, _G2, -self._atom_mass[v]))
            r += 1
        for k, e in enumerate(self.edges):
            if np.any(dens[k] != 0.0):
                put(r, e, (feature(k, _CMOM), feature(k, _SMOM), feature(k, _HD)),
                    1.0)
        for v, mass in self._atom_mass.items():
            e0, end0 = self.graph.incidences(v)[0]
            put(r, e0, val[(e0.id, end0)], mass)
        flat, feat, coef = zip(*entries)
        self._flat = np.array(flat, dtype=np.intp)
        self._feat = np.array(feat, dtype=np.intp)
        self._coef = np.array(coef, dtype=float)

    def _assemble(self, gamma, derivative=False):
        """Raw M(gamma), or (M, dM/dgamma) through the same plan: cos -> -L sin,
        s^j -> -2j s^j / gamma, and polynomial moments from those of t * p.
        A 1-D array of gammas gives stacks, one matrix per gamma."""
        gs = np.asarray(gamma, dtype=float)
        if np.any(gs <= 0):
            raise ValidationError("gamma must be positive")
        g = np.atleast_1d(gs)[:, None]
        L, B = self._lengths, g.shape[0]
        gL = g * L
        cg, sg = np.cos(gL), np.sin(gL)
        vers = 2.0 * np.sin(0.5 * gL) ** 2  # 1 - cos, stable at small gamma*L
        F = np.empty((B, len(self.edges), _EDGE_FEATURES))
        F[..., _COS], F[..., _SIN], F[..., _G] = cg, sg, g
        F[..., _GSIN], F[..., _MGCOS] = g * sg, -g * cg
        powers = (1.0 / (g * g)) ** np.arange(self._hpoly.shape[2])

        def h_features(weights):  # _hpoly against each gamma's row of weights
            return (self._hpoly @ weights[:, None, :, None])[..., 0]

        F[..., _H0:_CMOM] = h_features(powers)
        F[..., _CMOM] = self._d0 * sg / g
        F[..., _SMOM] = self._d0 * vers / g
        k = self._poly
        if k.size:  # moments of p and of t * p from one call
            I = _exp_moments(np.repeat(g, k.size), np.tile(L[k], B),
                             self._dens.shape[1]).reshape(B, k.size, -1)
            z = np.sum(self._dens[k] * I[..., :-1], axis=-1)
            F[:, k, _CMOM], F[:, k, _SMOM] = z.real, z.imag
        M = self._scatter(np.column_stack((np.ones(B), g * g)), F)
        if not derivative:
            return M if gs.ndim else M[0]
        D = np.empty_like(F)
        D[..., _COS], D[..., _SIN], D[..., _G] = -L * sg, L * cg, 1.0
        D[..., _GSIN], D[..., _MGCOS] = sg + gL * cg, gL * sg - cg
        D[..., _H0:_CMOM] = h_features(powers * np.arange(powers.shape[1])) \
            * (-2.0 / g[..., None])
        D[..., _CMOM] = self._d0 * (L * cg - sg / g) / g
        D[..., _SMOM] = self._d0 * (L * sg - vers / g) / g
        if k.size:
            z = np.sum(self._dens[k] * I[..., 1:], axis=-1)
            D[:, k, _CMOM], D[:, k, _SMOM] = -z.imag, z.real
        dM = self._scatter(np.column_stack((np.zeros(B), 2.0 * g)), D)
        return (M, dM) if gs.ndim else (M[0], dM[0])

    def _scatter(self, global_feats, edge_feats):
        """The matrices of a stack of feature rows, from one bincount."""
        B, NN = len(edge_feats), self.size * self.size
        feats = np.concatenate((global_feats, edge_feats.reshape(B, -1)), axis=1)
        M = np.bincount((self._flat + NN * np.arange(B)[:, None]).ravel(),
                        (self._coef * feats[:, self._feat]).ravel(), minlength=B * NN)
        return M.reshape(B, self.size, self.size)

    def solution(self, gamma, vec, h=None):
        """EdgeBasisSolution from one coefficient vector (and the table of
        particular solutions at gamma, when at hand)."""
        h = self.particulars(gamma) if h is None else h
        return EdgeBasisSolution(gamma, self._row, np.reshape(vec[:-1], (-1, 2)),
                                 float(vec[-1]), h, self.remaps)

    def _gram(self, gamma, vecs, h):
        """L2 Gram matrix of the solutions at gamma of the coefficient vectors
        vecs (h: particulars(gamma)); G[i, j] = l2_inner(f_i, f_j), every
        pair from one pair-form call."""
        V = np.asarray(vecs)
        ab = V[:, :-1].reshape(len(V), 1, -1, 2)
        p = V[:, -1, None, None] * h
        return np.sum(_pair_form(self._lengths, gamma, ab, p[:, None],
                                 gamma, ab.swapaxes(0, 1), p[None]), axis=-1)

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
    2) and p (..., m, n) may carry leading axes, which broadcast: one call
    then gives the pair form of every pair of functions at g1 and g2."""
    m, n1, n2 = len(L), p1.shape[-1], p2.shape[-1]
    omegas, which = np.unique([abs(g1 - g2), g1 + g2, g2, g1, 0.0], return_inverse=True)
    I = _exp_moments(np.repeat(omegas, m), np.tile(L, omegas.size),
                     n1 + n2 - 2).reshape(omegas.size, m, -1)[which]
    Cm, Sm = I[0, :, 0].real, math.copysign(1.0, g1 - g2) * I[0, :, 0].imag
    Cp, Sp = I[1, :, 0].real, I[1, :, 0].imag
    a1, b1, a2, b2 = ab1[..., 0], ab1[..., 1], ab2[..., 0], ab2[..., 1]
    z1 = np.sum(p1 * I[2, :, :n1], axis=-1)  # p1 against the trig part of f2
    z2 = np.sum(p2 * I[3, :, :n2], axis=-1)
    pp = I[4].real[:, np.arange(n1)[:, None] + np.arange(n2)]
    return (0.5 * (a1 * a2 * (Cm + Cp) + b1 * b2 * (Cm - Cp)
                   + a1 * b2 * (Sp - Sm) + a2 * b1 * (Sp + Sm))
            + a2 * z1.real + b2 * z1.imag + a1 * z2.real + b1 * z2.imag
            + np.einsum("...ei,...ej,eij->...e", p1, p2, pp))


def _row_lengths(graph, f1, f2):
    """Lengths of the edges of f1's rows, which f2 must share."""
    if f2.edges != f1.edges:
        raise ValidationError("the two functions have different edge rows")
    return np.array([graph.edge(eid).length for eid in f1.edges])


def l2_inner(graph, f1, f2):
    """Exact Lebesgue inner product of two EdgeBasisSolutions."""
    return float(np.sum(_pair_form(_row_lengths(graph, f1, f2),
                                   f1.gamma, f1.ab, f1.constant * f1.h,
                                   f2.gamma, f2.ab, f2.constant * f2.h)))


def dirichlet_inner(graph, f1, f2):
    """Exact integral of f1' f2' over the graph: the pair form of the derivatives."""
    return float(np.sum(_pair_form(
        _row_lengths(graph, f1, f2),
        f1.gamma, f1.ab[:, ::-1] * [f1.gamma, -f1.gamma], _derivative(f1.constant * f1.h),
        f2.gamma, f2.ab[:, ::-1] * [f2.gamma, -f2.gamma], _derivative(f2.constant * f2.h))))


def eigenfunctions_at(graph, mu, gamma_star, rank_tol=DEFAULT_RANK_TOL):
    """Eigenpair at a verified root: nullspace vectors orthonormalized in L2.

    Problem and, at a root it returned (sqrt(eigenvalue) is that root
    exactly), nullspace basis are find_eigenvalues' own for (graph, mu).
    The nullspace basis is combined through the inverse square root of the
    exact L2 Gram matrix of its solutions, so the returned eigenfunctions
    are orthonormal.  A simple eigenfunction is sign-fixed by
    its largest coefficient; a multiple eigenspace gets the one orthonormal
    basis whose pairing with a fixed generic probe of coefficient space is
    symmetric positive definite, whatever basis the SVD returned.
    """
    problem = _problem(graph, mu)
    basis = problem.bases.get((gamma_star, rank_tol)) or problem.nullspace(gamma_star, rank_tol)
    if not basis:
        raise NumericError(f"no nullspace at gamma={gamma_star!r}; "
                           "the candidate root is discarded")
    h = problem.particulars(gamma_star)
    k = len(basis)
    w, U = np.linalg.eigh(problem._gram(gamma_star, basis, h), UPLO="U")
    if w[0] <= 1e-12 * w[-1]:
        raise NumericError("degenerate Gram matrix in eigenspace orthonormalization")
    T = U @ np.diag(w ** -0.5) @ U.T  # symmetric inverse square root
    vecs = T @ np.asarray(basis)
    if k == 1:
        if vecs[0, np.argmax(np.abs(vecs[0]))] < 0:
            vecs = -vecs
    else:  # rotate by the orthogonal polar factor of the probe pairing, unique
        # as the i j (j - 1) term gives the probe full rank (sin(a_i + b_j): 2)
        i, j = np.arange(problem.size)[:, None], np.arange(k)[None, :]
        probe = np.sin(1.0 + np.sqrt(2.0) * i + np.sqrt(3.0) * j
                       + np.sqrt(5.0) * i * j * (j - 1))
        W, _, Vt = np.linalg.svd(vecs @ probe)
        vecs = (W @ Vt).T @ vecs
    funcs = tuple(problem.solution(gamma_star, vec, h) for vec in vecs)
    return Eigenpair(gamma_star * gamma_star, k, funcs)


class EigenvalueCount:
    """N_mu(gamma), the number of eigenvalues below gamma^2 of a
    SpectralProblem with multiplicity.

    Each edge is split at the golden ratio, which changes no eigenvalue and
    keeps the roots of equilateral graphs (gamma L in pi Z) off the pieces'
    Dirichlet poles.  The Wittrick-Williams count of the Kirchhoff
    Laplacian H, zero included, is N_K = sum over pieces of
    floor(gamma L / pi) + #pos(Lambda), Lambda(gamma) the vertex
    Dirichlet-to-Neumann matrix; the measure enters through the sign of
    w = <mu, (H - gamma^2)^-1 mu>: N_mu = N_K - 1 + [w > 0].  A piece with
    density d, trig moments C, S and s, c = sin, cos(gamma L) adds the end
    slopes (C - c S / s, S / s) of its Dirichlet solution to f (which
    starts from the atoms) and the self-energy of d under its Dirichlet
    Green's function to E, all bounded as gamma -> 0: w = E - f^T Lambda^-1 f.
    Lambda's constant direction, with an eigenvalue near gamma^2 ell lost to
    rounding at small gamma, is deflated: x = c 1 + (0, y) and the exact row
    sums r = Lambda 1 give #pos(Lambda) = #pos(Lambda_22) +
    [sum r - r_2^T Lambda_22^-1 r_2 > 0], and w by the same elimination.
    """

    def __init__(self, problem):
        graph, L = problem.graph, problem._lengths
        n, m = len(graph.vertices), len(L)
        ends = np.array([[graph.vertex_index(e.u), graph.vertex_index(e.v)]
                         for e in problem.edges])
        cut, mid = GOLDEN_CUT * L, n + np.arange(m)  # the cut of edge k is node n + k
        # piece 2k runs from u to the cut of edge k, piece 2k + 1 on to v
        u = np.column_stack((ends[:, 0], mid)).ravel()
        v = np.column_stack((mid, ends[:, 1])).ravel()
        N = self._nodes = n + m
        self._ends = np.concatenate((u, v))
        self._flat = np.concatenate((u * N + u, v * N + v, u * N + v, v * N + u))
        self._lengths = np.column_stack((cut, L - cut)).ravel()
        dens = np.stack((problem._dens, shift_polys(problem._dens, cut)),
                        axis=1).reshape(2 * m, -1)
        poly = np.any(dens[:, 1:] != 0.0, axis=1)
        self._poly, self._d0 = np.flatnonzero(poly), np.where(poly, 0.0, dens[:, 0])
        self._dens = dens[self._poly]
        self._overlap = _overlap(self._dens, self._lengths[self._poly])
        self._atoms = np.bincount([graph.vertex_index(v) for v in problem._atom_mass],
                                  list(problem._atom_mass.values()), minlength=N)

    def __call__(self, gamma):
        """N_mu at gamma, an int; at a 1-D array of gammas, the list of them,
        from one stacked solve and eigvalsh per batch (_batched)."""
        return _batched(self._counts, gamma, self._nodes)

    def _counts(self, gs):
        g, L, N, B = gs[:, None], self._lengths, self._nodes, len(gs)
        gL = g * L
        sg, cg = np.sin(gL), np.cos(gL)
        tg = g * np.tan(0.5 * gL)  # gamma (1 - c) / s, a row sum of one piece
        off = g / sg
        lam = np.bincount((self._flat + N * N * np.arange(B)[:, None]).ravel(),
                          np.concatenate((-cg * off, -cg * off, off, off), axis=1).ravel(),
                          minlength=B * N * N).reshape(B, N, N)
        ends = (self._ends + N * np.arange(B)[:, None]).ravel()
        r = np.bincount(ends, np.concatenate((tg, tg), axis=1).ravel(),
                        minlength=B * N).reshape(B, N)
        C, S = self._d0 * sg / g, self._d0 * 2.0 * np.sin(0.5 * gL) ** 2 / g
        energy = self._d0 ** 2 * (2.0 * tg / (g * g) - L) / (g * g)
        if self._poly.size:
            # d G_D d by the product-to-sum form of sin(g t<) sin(g (L - t>))
            k = self._poly
            I = _exp_moments(np.repeat(g, k.size), np.tile(L[k], B),
                             self._overlap.shape[1] - 1).reshape(B, k.size, -1)
            z = np.sum(self._dens * I[..., :self._dens.shape[1]], axis=-1)
            C[:, k], S[:, k] = z.real, z.imag
            zz = z * z * (cg[:, k] - 1j * sg[:, k])  # integral of d d cos(g (t + t' - L))
            energy[:, k] = (zz.real - 2.0 * np.sum(self._overlap * I.real, axis=-1)) \
                / (2.0 * g * sg[:, k])
        slopes = np.concatenate((C - cg * S / sg, S / sg), axis=1)
        f = self._atoms + np.bincount(ends, slopes.ravel(), minlength=B * N).reshape(B, N)
        sub = lam[:, 1:, 1:]
        x = np.linalg.solve(sub, np.stack((r[:, 1:], f[:, 1:]), axis=2))
        rs, fs = x[..., :1], x[..., 1:]  # stacked columns: dot products per gamma
        schur = r.sum(axis=1) - (r[:, None, 1:] @ rs)[:, 0, 0]
        z = f.sum(axis=1) - (r[:, None, 1:] @ fs)[:, 0, 0]
        w = energy.sum(axis=1) - (f[:, None, 1:] @ fs)[:, 0, 0] - z * z / schur
        rest = np.count_nonzero(np.linalg.eigvalsh(sub) > 0.0, axis=1) \
            + (schur > 0.0) - 1 + (w > 0.0)
        # Python ints: near a gamma_max that MAX_EIGENVALUES rejects, the
        # trig term can exceed int64
        return [int(t) + n for t, n in zip(np.sum(np.floor(gL / math.pi), axis=1).tolist(),
                                           rest.tolist())]


def _batched(fn, gamma, size):
    """fn, which maps a 1-D array of gammas to a list, at a scalar (its one
    value) or a 1-D array (one list), in batches of at most MAX_BATCH gammas
    whose size x size matrices hold at most MAX_STACK_ENTRIES entries (one
    matrix at least)."""
    gs = np.asarray(gamma, dtype=float)
    if np.any(gs <= 0):
        raise ValidationError("gamma must be positive")
    flat = np.atleast_1d(gs)
    step = max(1, min(MAX_BATCH, MAX_STACK_ENTRIES // (size * size)))
    out = [v for i in range(0, flat.size, step) for v in fn(flat[i:i + step])]
    return out if gs.ndim else out[0]


def _solve_traces(A, B):
    """tr(A_i^-1 B_i) per stacked pair; inf where A_i is singular to working
    precision, found by halving the stack that failed as a whole."""
    try:
        return np.trace(np.linalg.solve(A, B), axis1=1, axis2=2)
    except np.linalg.LinAlgError:
        if len(A) == 1:
            return np.array([math.inf])
        h = len(A) // 2
        return np.concatenate((_solve_traces(A[:h], B[:h]), _solve_traces(A[h:], B[h:])))


def _newton_ratio(problem, gamma):
    """u = 1 / (d/dgamma log det M) = 1 / tr(M^-1 M'), about (gamma - root) / k
    near a root of multiplicity k; equilibrating rows keeps the trace.  0 where
    M is singular to working precision (a root).  A float at a scalar gamma,
    a list at a 1-D array, from one stacked assembly and solve per batch
    (_batched)."""
    def ratios(gs):
        M, dM = problem._assemble(gs, derivative=True)
        M, scales = equilibrate_rows(M)
        dM /= scales[..., None]  # in place: the stacks are the step's largest arrays
        trace = _solve_traces(M, dM)
        with np.errstate(divide="ignore"):
            return np.where(trace == 0.0, math.inf, 1.0 / trace).tolist()
    return _batched(ratios, gamma, problem.size)


def _refine_root(a, b, root_tol):
    """Zero of u(gamma) = _newton_ratio in [a, b] by a bracketed secant
    iteration, as a generator: it yields the tuple of gammas whose u it needs
    next, is sent their values as a tuple, and returns the root (None unless
    u goes from negative at a to positive at b).

    Secant steps that leave the bracket or fail to halve the step before last
    fall back to bisection.  Once a step is below root_tol + 8 eps gamma, or a
    proposal lies within 8 eps gamma of the last iterate (a root, where
    bisection only shrinks a one-sided bracket), the next proposal is
    returned inside [a, b].
    """
    ua, ub = yield a, b
    if not ua < 0.0 < ub:
        return None
    x0, u0, x1, u1 = a, ua, b, ub
    steps, converged = [math.inf, math.inf], False
    for _ in range(SECANT_MAX_ITER):
        x = x1 - u1 * (x1 - x0) / (u1 - u0) if u1 != u0 else math.nan
        if converged or abs(x - x1) <= 8.0 * np.finfo(float).eps * x1:
            return min(max(x, a), b) if u1 != u0 else x1
        if not (a < x < b and abs(x - x1) <= 0.5 * steps[-2]):
            x = 0.5 * (a + b)
        (ux,) = yield (x,)
        if ux == 0.0:
            return x
        a, b = (x, b) if ux < 0.0 else (a, x)
        steps.append(abs(x - x1))
        converged = steps[-1] < root_tol + 8.0 * np.finfo(float).eps * x
        x0, u0, x1, u1 = x1, u1, x, ux
    return x1


def _refine_roots(problem, memo, brackets, root_tol):
    """_refine_root on every (a, b) of brackets in lockstep: each step asks
    _newton_ratio once for all the gammas that the pending iterations need
    and memo, the scan's dict gamma -> u, does not hold yet."""
    runs = [_refine_root(a, b, root_tol) for a, b in brackets]
    asks = [next(run) for run in runs]
    roots = [None] * len(runs)
    pending = list(range(len(runs)))
    while pending:
        need = list(dict.fromkeys(x for i in pending for x in asks[i] if x not in memo))
        if need:
            memo.update(zip(need, _newton_ratio(problem, np.array(need))))
        waiting = []
        for i in pending:
            try:
                asks[i] = runs[i].send(tuple(memo[x] for x in asks[i]))
                waiting.append(i)
            except StopIteration as done:
                roots[i] = done.value
        pending = waiting
    return roots


def find_eigenvalues(graph, mu, gamma_max, gamma_floor=None,
                     root_tol=DEFAULT_ROOT_TOL, rank_tol=DEFAULT_RANK_TOL):
    """All eigenvalues with gamma in (gamma_floor, gamma_max), ascending.

    [gamma_floor, gamma_max] is bisected on the exact count N_mu(gamma)
    (EigenvalueCount) until each bracket where it rises is at most
    pi / (8 * total length) wide, and the root in it is refined by a
    bracketed secant iteration on u = 1 / tr(M^-1 dM/dgamma), about
    (gamma - root) / k near a k-fold root.  The multiplicity is the count's
    jump, which must equal the nullspace dimension of M at the root
    (rank_tol); otherwise (two close roots, say) the bracket is bisected
    further, and NumericError is raised at float resolution.  gamma_floor,
    which excludes lambda = 0, defaults to DEFAULT_GAMMA_FLOOR / total
    length.  More than MAX_EIGENVALUES roots raise ValidationError before
    any bisection.  Returns Eigenpairs with empty eigenfunction tuples; the
    problem, its count and each root's basis are kept per (graph, mu)
    (_problem).

    The bracket tree is walked breadth first, one level at a time: the
    secant iterations of all the level's narrow brackets advance in
    lockstep, one stacked _newton_ratio call per step, and the count is
    taken at the midpoints of all brackets still to be split in one stacked
    call; stacks are split as _batched says.  The brackets, iterates and
    roots are those of a depth-first walk, but when several brackets fail, the
    NumericError raised is the first of the lowest failing level, which need
    not be the one a depth-first walk meets first.
    """
    problem = _problem(graph, mu)
    ell = total_length(problem.graph)
    if gamma_floor is None:
        gamma_floor = DEFAULT_GAMMA_FLOOR / ell
    if not gamma_max > gamma_floor:
        raise ValidationError("gamma_max must exceed gamma_floor")
    if not (math.isfinite(gamma_max) and math.isfinite(gamma_floor)):
        raise ValidationError("gamma_max and gamma_floor must be finite")
    width = math.pi / (8.0 * ell)
    na, nb = problem.count(np.array([gamma_floor, gamma_max]))
    if nb - na > MAX_EIGENVALUES:
        raise ValidationError(f"{float(nb - na):.6g} eigenvalues lie below gamma_max="
                              f"{gamma_max!r}, more than the {MAX_EIGENVALUES} one call finds")
    out, memo = [], {}
    level = [(gamma_floor, na, gamma_max, nb)] if nb > na else []
    while level:  # brackets in ascending order, each with a rise of the count
        narrow = [(a, b) for a, _, b, _ in level if b - a <= width]
        roots = iter(_refine_roots(problem, memo, narrow, root_tol))
        split = []
        for a, na, b, nb in level:
            jump = nb - na
            root = next(roots) if b - a <= width else None
            if root is not None:
                basis = problem.nullspace(root, rank_tol)
                if len(basis) == jump:
                    problem.bases[(root, rank_tol)] = basis
                    out.append(Eigenpair(root * root, jump))
                    continue
            if b - a <= 4.0 * np.finfo(float).eps * b:
                raise NumericError(f"the eigenvalue count rises by {jump} in [{a!r}, "
                                   f"{b!r}], but no root there has a nullspace that big")
            split.append((a, na, b, nb))
        if not split:
            break
        mids = [0.5 * (a + b) for a, _, b, _ in split]
        level = []
        for (a, na, b, nb), mid, nm in zip(split, mids, problem.count(np.array(mids))):
            if not na <= nm <= nb:
                raise NumericError(f"eigenvalue count not monotone near gamma={mid!r}")
            level += [br for br in ((a, na, mid, nm), (mid, nm, b, nb)) if br[3] > br[1]]
    return sorted(out, key=lambda pair: pair.eigenvalue)


@dataclass
class ResidualReport:
    """Worst-case residuals over the eigenfunctions of one Eigenpair."""

    continuity: float
    derivative: float
    integral: float
    operator: float


def eigen_residuals(graph, mu, eigenpair, samples_per_edge=5):
    """Continuity, derivative-balance, measure-integral, and operator residuals.

    The operator residual samples x on a grid and compares the integral of
    g_mu(x, y) f(y) dy against f(x) / lambda.  The integral is exact: the
    profile y -> g_mu(x, y) is a coefficient row per edge plus kinks
    J (y - a) right of a, so it is the pair form of f with the rows, plus per
    kink that of J (y - a) over [0, L] less that over [0, a].
    """
    if not eigenpair.eigenfunctions:
        raise ValidationError("eigenpair carries no eigenfunctions")
    problem = _problem(graph, mu)
    work, L = problem.graph, problem._lengths
    evaluator = green_mod.GreenEvaluator(work, problem.mu)
    cont = der = integ = oper = 0.0
    lam = eigenpair.eigenvalue
    grid_points = [work.point_at_vertex(v) for v in work.vertices]
    for e in work.edges:
        for t in np.linspace(0.0, e.length, samples_per_edge + 2)[1:-1]:
            grid_points.append(work.point(e.id, float(t)))
    profiles = [evaluator.g_profile(x) for x in grid_points]
    for f in eigenpair.eigenfunctions:
        gam = f.gamma
        for v in work.vertices:
            inc = work.incidences(v)
            e0, end0 = inc[0]
            base = f.value(e0.id, 0.0 if end0 == 0 else e0.length)
            balance = 0.0
            for e, end in inc:
                t_end = 0.0 if end == 0 else e.length
                cont = max(cont, abs(float(f.value(e.id, t_end)) - float(base)))
                d = float(f.derivative(e.id, t_end))
                balance += d if end == 0 else -d
            balance -= gam * gam * problem._atom_mass.get(v, 0.0) * f.constant
            der = max(der, abs(balance))
        integ = max(integ, abs(problem.mu_integral(f)))
        p = f.constant * f.h
        for x, profile in zip(grid_points, profiles):
            total = np.sum(_pair_form(L, gam, f.ab, p, 0.0, 0.0 * f.ab,
                                      np.real(profile.coeffs)))
            rows, a, jumps = profile.kinks
            if rows.size:
                kink = np.real(jumps)[:, None] * np.column_stack((-a, np.ones_like(a)))
                args = (gam, f.ab[rows], p[rows], 0.0, 0.0 * f.ab[rows], kink)
                total += np.sum(_pair_form(L[rows], *args) - _pair_form(a, *args))
            oper = max(oper, abs(float(total) - f.at_point(x) / lam))
    return ResidualReport(cont, der, integ, oper)


def mercer_partial_sum(eigenpairs, x, y):
    """Sum over the given eigenpairs of f_n(x) f_n(y) / lambda_n."""
    total = 0.0
    for pair in eigenpairs:
        for f in pair.eigenfunctions:
            total += f.at_point(x) * f.at_point(y) / pair.eigenvalue
    return total


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
