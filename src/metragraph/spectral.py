"""Eigenvalue problem for the Laplacian with a fixed reference measure.

At frequency gamma, every solution of the edge-wise eigen-equation
f'' + gamma^2 f = gamma^2 C g (g the measure's polynomial edge density, C
the Lebesgue integral of f over the whole graph) has the form
A cos(gamma t) + B sin(gamma t) + C h(t), with h a polynomial particular
solution.  Continuity at each vertex, one derivative-balance condition per
vertex, and the vanishing of the integral of f against the measure yield a
square homogeneous system M(gamma) of size 2m+1; eigenvalues are
lambda = gamma^2 exactly where M(gamma) is singular, with multiplicity the
nullspace dimension.  The scan brackets each root with the exact eigenvalue
count (EigenvalueCount), the inertia of one symmetric bordered matrix of
size n + m + 1 per gamma, refines it by a secant iteration on M(gamma) and
confirms it by the nullspace dimension of M there, each stage on a stack of
gammas per call.  Every edge integral at a given gamma (trig moments of
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

from . import green as green_mod
from .graph_core import PointOnGraph, ValidationError, subdivide_at, total_length
from .measure import integrate_polys_against, remap_measure
from .numerics import (
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
GOLDEN_CUT = (math.sqrt(5.0) - 1.0) / 2.0
ZERO_ROW_REL = 1e-10
SECANT_MAX_ITER = 100
_EPS = np.finfo(float).eps
# per find_eigenvalues call, counted before any bisection: a root of M(gamma)
# of size s costs s^3 + 230 s^2 + 8e4 units, about 2.6 ns each on a 2-core
# x86 host (fitted on the interval and random cubic graphs, m = 30 to 300)
MAX_SCAN_WORK = 4e9  # about 10 s
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
# The features that a put of _compile writes into the A, B, C columns of its
# edge e, by kind: the value (side) or derivative (2 + side) at an end, the
# moments (4), an atom's gamma^2 term (5); -1 for none, edge e's own where
# _PUT_ON_EDGE is 1.
_PUT_FEATURES = np.array([[_ONE, -1, _H0], [_COS, _SIN, _HL], [-1, _G, _HP0],
                          [_GSIN, _MGCOS, _MHPL], [_CMOM, _SMOM, _HD], [-1, -1, _G2]])
_PUT_ON_EDGE = np.array([[0, 0, 1], [1, 1, 1], [0, 1, 1], [1, 1, 1], [1, 1, 1], [0, 0, 0]])


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
        P = np.cumprod(np.concatenate((np.ones_like(xs), xs * (1.0 / j[1:])), axis=1), axis=1)
        P[j >= 40.0 + np.ceil(7.5 * xs)] = 0.0
        series = (P[:, None, :] @ _series_table(count)[:j.size])[:, 0]
        series *= L[rows, None] ** np.arange(1.0, count + 2.0)
        out[rows] = np.where(closed[rows], out[rows], series)
    return out.reshape(shape)


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

    def _read(self, edge_id, t, derivative):
        """value or derivative in one array pass; the remap chain is walked one
        vectorised step per split, with each remap's own test and subtraction."""
        ids, t = np.broadcast_arrays(np.array(edge_id, dtype=object), np.asarray(t, dtype=float))
        shape, ids, t = t.shape, ids.flatten(), t.flatten()
        for remap in self.remaps:
            hit = ids == remap.split_edge
            right = hit & (t > remap.split_offset)
            ids[hit] = remap.child_u
            ids[right] = remap.child_v
            t[right] -= remap.split_offset
        k = np.fromiter(map(self.edges.__getitem__, ids), dtype=np.intp, count=ids.size)
        (A, B), g, h = self.ab[k].T, self.gamma, self.h
        if derivative:  # B g cos - A g sin + C h'
            (A, B), h = (B * g, -A * g), polyder_rows(h)
        out = A * np.cos(g * t) + B * np.sin(g * t) + self.constant * polyval_rows(h[k], t)
        return out.reshape(shape)[()]

    def value(self, edge_id, t):
        return self._read(edge_id, t, False)

    def derivative(self, edge_id, t):
        return self._read(edge_id, t, True)

    def at_point(self, point):
        return float(self.value(point.edge, point.offset))


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
    bases keeps find_eigenvalues' nullspace bases by root, and count its
    EigenvalueCount.
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
        self.bases = {}
        self.edges = work.edges
        self._row, self._lengths, self._ends = work.edge_arrays
        self.size = 2 * len(self.edges) + 1
        self._atom_mass = {}
        for v, m in zip(map(work.vertices.__getitem__, vertex.tolist()), mass.real.tolist()):
            self._atom_mass[v] = self._atom_mass.get(v, 0.0) + m
        self._compile()

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
        """The particular solutions at gamma, one zero-padded row per edge."""
        return self._ptab @ (1.0 / (gamma * gamma)) ** np.arange(self._ptab.shape[2])

    def matrix(self, gamma):
        """Row-equilibrated M(gamma)."""
        return equilibrate_rows(self._assemble(gamma))[0]

    def nullspace(self, gamma):
        """Nullspace vectors of M(gamma), robust to rows that vanish there.

        A whole raw row can vanish at a degenerate root (the integral row
        does when an atom-only measure produces a double eigenvalue), and
        per-row equilibration would rescale its numerical noise to unit
        size, hiding one nullspace dimension.  Near-zero rows are therefore
        dropped before the remaining rows are equilibrated and the rank
        decision is made at DEFAULT_RANK_TOL.  A 1-D array of gammas gives
        the list of their bases (_batched): the matrices that keep every row
        share one stacked SVD, and one that drops rows goes alone.
        """
        def bases(gs):
            raw = self._assemble(gs)
            rowmax = np.abs(raw).max(axis=2)
            keep = rowmax > ZERO_ROW_REL * rowmax.max(axis=1, keepdims=True)
            whole = keep.all(axis=1)
            stacked = iter(nullspace_basis(equilibrate_rows(raw[whole])[0]))
            return [next(stacked) if w else nullspace_basis(equilibrate_rows(
                        M[k] if k.any() else np.zeros((1, self.size)))[0])
                    for M, k, w in zip(raw, keep, whole)]
        return _batched(bases, gamma, self.size)

    def _compile(self):
        """Scatter plan of M(gamma) in split form, M = sum_j f_j(gamma) A_j.

        Each structural nonzero becomes (flat index row*N + col, feature,
        coefficient); _assemble evaluates the features at gamma and scatters
        coefficient * feature with one bincount.  Entries are listed in the
        order the rows accumulate, so repeated indices sum in a fixed order.
        A vertex's rows start at its first incidence (incidences in edge
        order, end u before end v): a continuity row per later incidence, its
        value less the first's, then the derivative row, every derivative and
        then the atom.  The integral row takes the moments, then each atom's
        mass times the value at its vertex's first incidence.
        """
        # h = sum_j s^j P_j with s = 1/gamma^2 and P = _ptab; _hpoly[:, :, j]
        # holds h(0), h(L), h'(0), -h'(L) and the integral of h*d for P_j.
        # Constant densities get closed forms (h = d0, the trig moments), the
        # rows _poly of _dens batched ones.
        L = self._lengths
        self._dens = dens = self.mu.arrays[3]
        nonzero = dens != 0.0
        poly = nonzero[:, 1:].any(axis=1)
        k, d0 = np.flatnonzero(poly), np.where(poly, 0.0, dens[:, 0])
        self._poly, self._d0 = k, d0
        self._ptab = P = _particular_table(dens)
        self._hpoly = np.zeros((len(L), 5, P.shape[2]))
        if P.shape[2]:
            self._hpoly[:, 0, 0] = self._hpoly[:, 1, 0] = d0
            self._hpoly[:, 4, 0] = d0 * d0 * L
        for j in range(P.shape[2] if k.size else 0):
            h = P[k, :, j]
            hp = polyder_rows(h)
            integral = integrate_rows(0.0, L[k], polymul_rows(h, dens[k]))
            self._hpoly[k, :, j] = np.array(
                (h[:, 0], polyval_rows(h, L[k]), hp[:, 0], -polyval_rows(hp, L[k]), integral)).T
        # the puts in groups, each in row order, that a stable sort by row
        # merges in the order above (_PUT_FEATURES: 6 e + kind for edge e)
        m, N = len(L), self.size
        ends = self._ends.ravel()  # the vertex of end 2k + side
        inc = np.argsort(ends, kind="stable")  # the incidences, vertex by vertex
        deg = np.bincount(ends, minlength=len(self.graph.vertices))
        first, v = np.cumsum(deg) - deg, ends[inc]
        val = inc + 4 * (inc >> 1)  # the put of the value at each incidence
        p = np.flatnonzero(np.arange(2 * m) != first[v])  # continuity rows p - 1
        atoms = np.array([self.graph.vertex_index(a) for a in self._atom_mass], dtype=np.intp)
        mass = np.array(list(self._atom_mass.values()))
        moments, nz, last = np.flatnonzero(nonzero.any(axis=1)), mass != 0.0, first + deg - 1
        row = np.concatenate((p - 1, p - 1, last[v], last[atoms[nz]],
                              np.full(moments.size + atoms.size, N - 1)))
        order = np.argsort(row, kind="stable")
        put = np.concatenate((val[p], val[first[v]][p], val + 2, np.full(nz.sum(), 5),
                              6 * moments + 4, val[first[atoms]]))[order]
        coef = np.concatenate((np.repeat([1.0, -1.0, 1.0], [p.size, p.size, 2 * m]), -mass[nz],
                               np.ones(moments.size), mass))[order]
        e, kind = put // 6, put % 6
        feats = _PUT_FEATURES[kind] + _PUT_ON_EDGE[kind] * (2 + _EDGE_FEATURES * e)[:, None]
        keep = feats >= 0
        cols = np.where([False, False, True], N - 1, 2 * e[:, None] + [0, 1, 0])  # A, B, C of e
        self._flat = (row[order, None] * N + cols)[keep]
        self._feat = feats[keep]
        self._coef = np.repeat(coef, keep.sum(axis=1))

    def _assemble(self, gamma, derivative=False):
        """Raw M(gamma), or (M, dM/dgamma) through the same plan: cos -> -L sin,
        s^j -> -2j s^j / gamma, and polynomial moments from those of t * p.
        A 1-D array of gammas gives stacks, one matrix per gamma."""
        gs = np.asarray(gamma, dtype=float)
        if (gs <= 0).any():
            raise ValidationError("gamma must be positive")
        g = np.atleast_1d(gs)[:, None]
        L, B, m = self._lengths, g.shape[0], len(self._lengths)
        gL = g * L
        cg, sg = np.cos(gL), np.sin(gL)
        vers = 2.0 * np.sin(0.5 * gL) ** 2  # 1 - cos, stable at small gamma*L
        # the feature rows of M (and of dM): the global ones, then F (and D),
        # _EDGE_FEATURES per edge, as views
        feats = np.empty((1 + derivative, B, 2 + _EDGE_FEATURES * m))
        edge = feats[..., 2:].reshape(-1, B, m, _EDGE_FEATURES)
        F, D = edge[0], edge[-1]
        g2 = g * g
        feats[0, :, _ONE], feats[0, :, _G2] = 1.0, g2[:, 0]
        F[..., _COS], F[..., _SIN], F[..., _G] = cg, sg, g
        F[..., _GSIN], F[..., _MGCOS] = g * sg, -g * cg
        powers = (1.0 / g2) ** np.arange(self._hpoly.shape[2])

        def h_features(weights):  # _hpoly against each gamma's row of weights
            return (self._hpoly @ weights[:, None, :, None])[..., 0]

        F[..., _H0:_CMOM] = h_features(powers)
        F[..., _CMOM] = self._d0 * sg / g
        F[..., _SMOM] = self._d0 * vers / g
        k = self._poly
        if k.size:  # moments of p and of t * p from one call
            I = _exp_moments(g, L[k], self._dens.shape[1])
            z = np.sum(self._dens[k] * I[..., :-1], axis=-1)
            F[:, k, _CMOM], F[:, k, _SMOM] = z.real, z.imag
        if derivative:
            feats[1, :, _ONE], feats[1, :, _G2] = 0.0, 2.0 * g[:, 0]
            Lc, Ls = L * cg, L * sg
            D[..., _COS], D[..., _SIN], D[..., _G] = -Ls, Lc, 1.0
            D[..., _GSIN], D[..., _MGCOS] = sg + gL * cg, gL * sg - cg
            D[..., _H0:_CMOM] = h_features(powers * np.arange(powers.shape[1])) \
                * (-2.0 / g[..., None])
            D[..., _CMOM] = self._d0 * (Lc - sg / g) / g
            D[..., _SMOM] = self._d0 * (Ls - vers / g) / g
            if k.size:
                z = np.sum(self._dens[k] * I[..., 1:], axis=-1)
                D[:, k, _CMOM], D[:, k, _SMOM] = -z.imag, z.real
        # a stack of M, and of dM, from one bincount each, which sums each
        # matrix's entries in plan order; the two share one index array
        N = self.size
        index = (self._flat + N * N * np.arange(B)[:, None]).ravel()
        weights = self._coef * feats.reshape(-1, feats.shape[-1]).take(self._feat, axis=1)
        out = [np.bincount(index, w, minlength=B * N * N).reshape(B, N, N)[() if gs.ndim else 0]
               for w in weights.reshape(len(feats), -1)]
        return tuple(out) if derivative else out[0]

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
    n1, n2 = p1.shape[-1], p2.shape[-1]
    omegas, which = np.unique([abs(g1 - g2), g1 + g2, g2, g1, 0.0], return_inverse=True)
    I = _exp_moments(omegas[:, None], L, n1 + n2 - 2)[which]
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
    basis = problem.bases.get(gamma_star) or problem.nullspace(gamma_star)
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
    By Haynsworth inertia additivity, #pos(Lambda) + [w > 0] = #pos(B) for
    B = [[Lambda / gamma, f], [f^T, gamma E]], congruent to [[Lambda, f],
    [f^T, E]] and free of units.  B's border holds Lambda's near-null constant
    direction (1^T f is about mu's mass), and the scaling keeps w's eigenvalue
    clear of rounding near piece poles, so nothing needs deflating.
    """

    def __init__(self, problem):
        graph, L, ends = problem.graph, problem._lengths, problem._ends
        n, m = len(graph.vertices), len(L)
        cut, mid = GOLDEN_CUT * L, n + np.arange(m)  # the cut of edge k is node n + k
        # piece 2k runs from u to the cut of edge k, piece 2k + 1 on to v
        u = np.column_stack((ends[:, 0], mid)).ravel()
        v = np.column_stack((mid, ends[:, 1])).ravel()
        N = self._nodes = n + m
        # B's entries: Lambda / gamma in the first N rows and columns, then the
        # end slopes in row N (eigvalsh reads the lower triangle)
        rows = np.concatenate((u, v, u, v, np.full(4 * m, N)))
        self._flat = rows * (N + 1) + np.concatenate((u, v, v, u, u, v))
        self._lengths = np.column_stack((cut, L - cut)).ravel()
        dens = np.stack((problem._dens, shift_polys(problem._dens, cut)),
                        axis=1).reshape(2 * m, -1)
        poly = np.any(dens[:, 1:] != 0.0, axis=1)
        self._poly, self._d0 = np.flatnonzero(poly), np.where(poly, 0.0, dens[:, 0])
        self._dens = dens[self._poly]
        if self._poly.size:
            self._overlap = _overlap(self._dens, self._lengths[self._poly])
        self._atoms = np.bincount([graph.vertex_index(v) for v in problem._atom_mass],
                                  list(problem._atom_mass.values()), minlength=N)

    def __call__(self, gamma):
        """N_mu at gamma, an int; at a 1-D array of gammas, the list of them,
        from one stacked eigvalsh of B per batch (_batched)."""
        return _batched(self._counts, gamma, self._nodes + 1)

    def _counts(self, gs):
        g, L, N, B = gs[:, None], self._lengths, self._nodes, len(gs)
        gL = g * L
        sg, cg, half = np.sin(gL), np.cos(gL), 0.5 * gL
        C, S = self._d0 * sg / g, self._d0 * 2.0 * np.sin(half) ** 2 / g
        energy = self._d0 ** 2 * (2.0 * np.tan(half) / g - L) / (g * g)
        if self._poly.size:
            # d G_D d by the product-to-sum form of sin(g t<) sin(g (L - t>))
            k = self._poly
            I = _exp_moments(g, L[k], self._overlap.shape[1] - 1)
            z = np.sum(self._dens * I[..., :self._dens.shape[1]], axis=-1)
            C[:, k], S[:, k] = z.real, z.imag
            zz = z * z * (cg[:, k] - 1j * sg[:, k])  # integral of d d cos(g (t + t' - L))
            energy[:, k] = (zz.real - 2.0 * np.sum(self._overlap * I.real, axis=-1)) \
                / (2.0 * g * sg[:, k])
        off = 1.0 / sg  # Lambda / gamma
        diag = -cg * off
        weights = np.concatenate((diag, diag, off, off, C - cg * S * off, S * off), axis=1).ravel()
        bordered = np.bincount((self._flat + (N + 1) ** 2 * np.arange(B)[:, None]).ravel(),
                               weights, minlength=B * (N + 1) ** 2).reshape(B, N + 1, N + 1)
        bordered[:, N, :N] += self._atoms
        bordered[:, N, N] = gs * energy.sum(axis=1)
        positive = (np.linalg.eigvalsh(bordered, UPLO="L") > 0.0).sum(axis=1)
        # Python ints: near a gamma_max that MAX_SCAN_WORK rejects, the
        # trig term can exceed int64
        return [int(t) + n - 1 for t, n in zip(np.floor(gL / math.pi).sum(axis=1).tolist(),
                                               positive.tolist())]


def _batched(fn, gamma, size):
    """fn, which maps a 1-D array of gammas to a list, at a scalar (its one
    value) or a 1-D array (one list), in batches of at most MAX_BATCH gammas
    whose size x size matrices hold at most MAX_STACK_ENTRIES entries (one
    matrix at least)."""
    gs = np.asarray(gamma, dtype=float)
    if (gs <= 0).any():
        raise ValidationError("gamma must be positive")
    flat = np.atleast_1d(gs)
    step = max(1, min(MAX_BATCH, MAX_STACK_ENTRIES // (size * size)))
    out = [v for i in range(0, flat.size, step) for v in fn(flat[i:i + step])]
    return out if gs.ndim else out[0]


def _solve_traces(A, B):
    """tr(A_i^-1 B_i) per stacked pair; inf where A_i is singular to working
    precision, found by halving the stack that failed as a whole."""
    try:
        return np.linalg.solve(A, B).trace(axis1=1, axis2=2)
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


def _refine_root(a, b):
    """Zero of u(gamma) = _newton_ratio in [a, b] by a bracketed secant
    iteration, as a generator: it yields the tuple of gammas whose u it needs
    next, is sent their values as a tuple, and returns the root (None unless
    u goes from negative at a to positive at b).

    Secant steps that leave the bracket or fail to halve the step before last
    fall back to bisection.  Once a step is below DEFAULT_ROOT_TOL + 8 eps
    gamma, or a proposal lies within 8 eps gamma of the last iterate (a root,
    where bisection only shrinks a one-sided bracket), the next proposal is
    returned inside [a, b].
    """
    ua, ub = yield a, b
    if not ua < 0.0 < ub:
        return None
    x0, u0, x1, u1 = a, ua, b, ub
    steps, converged = [math.inf, math.inf], False
    for _ in range(SECANT_MAX_ITER):
        x = x1 - u1 * (x1 - x0) / (u1 - u0) if u1 != u0 else math.nan
        if converged or abs(x - x1) <= 8.0 * _EPS * x1:
            return min(max(x, a), b) if u1 != u0 else x1
        if not (a < x < b and abs(x - x1) <= 0.5 * steps[-2]):
            x = 0.5 * (a + b)
        (ux,) = yield (x,)
        if ux == 0.0:
            return x
        a, b = (x, b) if ux < 0.0 else (a, x)
        steps.append(abs(x - x1))
        converged = steps[-1] < DEFAULT_ROOT_TOL + 8.0 * _EPS * x
        x0, u0, x1, u1 = x1, u1, x, ux
    return x1


def _refine_roots(problem, memo, brackets):
    """_refine_root on every (a, b) of brackets in lockstep: each step asks
    _newton_ratio once for all the gammas that the pending iterations need
    and memo, the scan's dict gamma -> u, does not hold yet."""
    runs = [_refine_root(a, b) for a, b in brackets]
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


def find_eigenvalues(graph, mu, gamma_max, gamma_floor=None):
    """All eigenvalues with gamma in (gamma_floor, gamma_max), ascending.

    [gamma_floor, gamma_max] is bisected on the exact count N_mu(gamma)
    (EigenvalueCount) until each bracket where it rises is at most
    pi / (8 * total length) wide, and the root in it is refined by a
    bracketed secant iteration on u = 1 / tr(M^-1 dM/dgamma), about
    (gamma - root) / k near a k-fold root.  The multiplicity is the count's
    jump, which must equal the nullspace dimension of M at the root;
    otherwise (two close roots, say) the bracket is bisected further, and
    NumericError is raised at float resolution; the tolerances are the fixed
    DEFAULT_ROOT_TOL and DEFAULT_RANK_TOL.  gamma_floor, which excludes
    lambda = 0, defaults to DEFAULT_GAMMA_FLOOR / total length.  More roots
    than fit in MAX_SCAN_WORK raise ValidationError before any bisection.
    Returns Eigenpairs with empty eigenfunction tuples; the problem, its
    count and each root's basis are kept per (graph, mu) (_problem).

    The bracket tree is walked breadth first, one level at a time: the
    secant iterations of all the level's narrow brackets advance in
    lockstep, one stacked _newton_ratio call per step, the level's roots are
    confirmed by one stacked nullspace call, and the count is taken at the
    midpoints of all brackets still to be split in one stacked call; stacks
    are split as _batched says.  The brackets, iterates and
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
    per_root = problem.size ** 3 + 230 * problem.size ** 2 + 80_000
    if (nb - na) * per_root > MAX_SCAN_WORK:
        raise ValidationError(f"{float(nb - na):.6g} eigenvalues lie below gamma_max="
                              f"{gamma_max!r}, more than the {int(MAX_SCAN_WORK // per_root)} "
                              f"one call finds at matrix size {problem.size}")
    out, memo = [], {}
    level = [(gamma_floor, na, gamma_max, nb)] if nb > na else []
    while level:  # brackets in ascending order, each with a rise of the count
        narrow = [(a, b) for a, _, b, _ in level if b - a <= width]
        roots = _refine_roots(problem, memo, narrow)
        found = [root for root in roots if root is not None]
        bases = iter(problem.nullspace(np.array(found)) if found else ())
        roots = iter(roots)
        split = []
        for a, na, b, nb in level:
            jump = nb - na
            root = next(roots) if b - a <= width else None
            if root is not None:
                basis = next(bases)
                if len(basis) == jump:
                    problem.bases[root] = basis
                    out.append(Eigenpair(root * root, jump))
                    continue
            if b - a <= 4.0 * _EPS * b:
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
    # f is read at n points per edge; end 2k + side of edge k is ends[2k +
    # side], at vertex[2k + side]; vertex i's grid point is its first end
    n = samples_per_edge + 2
    ids = np.repeat(np.array([e.id for e in work.edges], dtype=object), n)
    t = np.linspace(0.0, L, n, axis=1).ravel()
    ends = (np.arange(0, len(t), n)[:, None] + [0, n - 1]).ravel()
    vertex = problem._ends.ravel()
    first = np.unique(vertex, return_index=True)[1]
    grid = np.concatenate((ends[first], np.setdiff1d(np.arange(len(t)), ends)))
    profiles = [evaluator.g_profile(x) for x in map(PointOnGraph, ids[grid], t[grid].tolist())]
    coeffs = np.real(np.stack([q.coeffs for q in profiles]))
    rows, a, jumps = (np.concatenate(z) for z in zip(*(q.kinks for q in profiles)))
    owner = np.repeat(np.arange(len(grid)), [q.kinks[0].size for q in profiles])
    kink = np.real(jumps)[:, None] * np.column_stack((-a, np.ones_like(a)))
    sign = np.tile([1.0, -1.0], len(L))  # slopes out of the u end, into the v end
    mass = np.array([problem._atom_mass.get(v, 0.0) for v in work.vertices])
    for f in eigenpair.eigenfunctions:
        gam = f.gamma
        vals = f.value(ids, t)
        cont = max(cont, float(np.max(np.abs(vals[ends] - vals[ends[first]][vertex]))))
        balance = np.bincount(vertex, sign * f.derivative(ids[ends], t[ends]),
                              minlength=len(mass)) - gam * gam * mass * f.constant
        der = max(der, float(np.max(np.abs(balance))))
        integ = max(integ, abs(problem.mu_integral(f)))
        p = f.constant * f.h
        total = np.sum(_pair_form(L, gam, f.ab, p, 0.0, 0.0 * f.ab, coeffs), axis=-1)
        if rows.size:
            args = (gam, f.ab[rows], p[rows], 0.0, 0.0 * f.ab[rows], kink)
            total += np.bincount(owner, _pair_form(L[rows], *args) - _pair_form(a, *args),
                                 minlength=len(grid))
        oper = max(oper, float(np.max(np.abs(total - vals[grid] / lam))))
    return ResidualReport(cont, der, integ, oper)


def mercer_partial_sum(eigenpairs, x, y):
    """Sum over the given eigenpairs of f_n(x) f_n(y) / lambda_n."""
    terms = [np.prod(f.value([x.edge, y.edge], [x.offset, y.offset])) / pair.eigenvalue
             for pair in eigenpairs for f in pair.eigenfunctions]
    return float(np.cumsum([0.0, *terms])[-1])


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
