"""Independent cross-checks for the test suite.

Everything here is deliberately naive and self-contained: resistor networks
assembled as dense Laplacians, pseudo-inverse Green matrices, integral
operator eigenvalues from a uniform refinement, quadrature from scipy, and
the secular matrix M(gamma) assembled entry by entry.  Nothing below calls
into the package except to read graph topology (and, for M(gamma), a
SpectralProblem's working graph, densities and atom masses), so test
comparisons are genuine two-route checks.  The one exception,
scan_spectrum, scans the package's M(gamma) (itself checked against
secular_matrix) with a plain grid, brentq and minimization, as a second
route to the eigenvalue count.  depth_first_eigenvalues, the scan's
former depth-first walk, also calls the package's count, its plans and the
crossing eigenvalues that the secant follows, one gamma at a time, to check
the lockstep walk that replaced it.  pole_plans is the count's former
per-gamma choice of plan, |x - round x| < POLE_REL x for x = gamma L / pi,
that the one pole rule (_near_pole) replaced.  piecewise_extremes and
piecewise_abs_integral are the former per-piece loops of the
piecewise-polynomial class, one numpy polyroots per piece, that the array
passes of circuit.EdgeTable replaced.
solution_value and mercer_sum read an EdgeBasisSolution's arrays one point
at a time: the PointRemap chain walked point by point and the scalar
per-edge formula, the former per-point paths of the solution's value and
derivative and of mercer_partial_sum, that one array pass replaced.
vertex_residuals (continuity and derivative balance, vertex by vertex, on
solution_value) and operator_residual (the identity integral g_mu(x, y)
f(y) dy = f(x) / lambda, one grid point at a time, on the package's Green
profiles and pair form) are the residual checks of an eigenpair; the
package has no copy of them.  kernel_eval is the former body of
ResistanceKernel.eval, the edge pair's 3 x 3 monomial form (the kernel's
biquad) read through vander and einsum, that the vertex-weight read
replaced.  discriminant_pairs is the former pair loop of
green.discriminant_sum, one package point_eval per pair, that the energy
form replaced.  table_values, table_integrals and table_integrate are the
former raw-array reads of circuit.EdgeTable (coefficient powers plus the
kinks left of each point, and closed kink tail forms), that the reads
through the table's pieces replaced, evaluated at 40 digits with mpmath
and rounded once.  atom_count is the eigenvalue count of an atom-only
measure at 60 digits, from its definition.  deflated_counts is the
eigenvalue count as it was read before the bordered matrix B, #pos(Lambda)
and the sign of w apart with a deflating solve.  svd_eigenpair is the former
route of eigenfunctions_at: the nullspace of M by SVD, then the package's
own Gram orthonormalization and probe rotation, as a stack of one.
mercer_function_loop is the former sum of mercer_partial_sum, one
function read at a time, that one array pass per working graph replaced.
path_distance, dirichlet_inner, sup_norm and cpa_hat are helpers that only
the tests read.
"""

import functools
import heapq
import itertools
import math

import mpmath
import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy import integrate
from scipy.optimize import brentq, minimize_scalar

from metragraph.graph_core import PointOnGraph, subdivide_at, total_length
from metragraph.measure import CPAFunction
from metragraph.numerics import DEFAULT_RANK_TOL, DEFAULT_ROOT_TOL, polyder_rows
from metragraph.green import GreenEvaluator
from metragraph import spectral
from metragraph.spectral import (
    DEFAULT_GAMMA_FLOOR, POLE_REL, SECANT_MAX_ITER, EigenvalueCount, SpectralProblem,
    _exp_moments, _crossing, _near_pole, _pair_form, _problem, _row_lengths,
)


class NetworkModel:
    """Resistor network with nodes at vertices, marked points, and an
    optional uniform refinement of every edge.

    Series subdivision of an edge is exact for resistance computations, so
    potentials and effective resistances at the nodes are exact up to the
    dense linear solve.  Refinement only matters for quantities that
    integrate over edges (mass matrices, measure weights).
    """

    def __init__(self, graph, marks=(), per_edge=0):
        self.graph = graph
        cuts = {e.id: {0.0, e.length} for e in graph.edges}
        for p in marks:
            if graph.vertex_of(p) is None:
                cuts[p.edge].add(float(p.offset))
        if per_edge:
            for e in graph.edges:
                for j in range(1, per_edge):
                    cuts[e.id].add(j * e.length / per_edge)

        self._index = {}
        self.segments = []  # (i, j, h)
        self.edge_nodes = {}  # edge id -> [(offset, node index), ...]
        for e in graph.edges:
            chain = []
            for t in sorted(cuts[e.id]):
                if t == 0.0:
                    key = e.u
                elif t == e.length:
                    key = e.v
                else:
                    key = (e.id, t)
                chain.append((t, self._index.setdefault(key, len(self._index))))
            self.edge_nodes[e.id] = chain
            for (t0, i), (t1, j) in zip(chain, chain[1:]):
                self.segments.append((i, j, t1 - t0))

        n = len(self._index)
        K = np.zeros((n, n))
        for i, j, h in self.segments:
            c = 1.0 / h
            K[i, i] += c
            K[j, j] += c
            K[i, j] -= c
            K[j, i] -= c
        self.laplacian = K

    @property
    def size(self):
        return len(self._index)

    def node(self, point):
        v = self.graph.vertex_of(point)
        key = v if v is not None else (point.edge, float(point.offset))
        return self._index[key]

    def solve(self, b, ground):
        keep = [k for k in range(self.size) if k != ground]
        v = np.zeros(self.size)
        v[keep] = np.linalg.solve(
            self.laplacian[np.ix_(keep, keep)], np.asarray(b)[keep]
        )
        return v

    def mass_matrix(self):
        """Consistent piecewise-affine mass matrix for Lebesgue measure."""
        M = np.zeros((self.size, self.size))
        for i, j, h in self.segments:
            M[i, i] += h / 3.0
            M[j, j] += h / 3.0
            M[i, j] += h / 6.0
            M[j, i] += h / 6.0
        return M

    def mu_weights(self, atoms=(), densities=None):
        """Nodal hat-function integrals against atoms + constant densities.

        Atom points must have been passed as marks (or sit at vertices).
        """
        w = np.zeros(self.size)
        for p, m in atoms:
            w[self.node(p)] += m
        for eid, c in (densities or {}).items():
            chain = self.edge_nodes[eid]
            for (t0, i), (t1, j) in zip(chain, chain[1:]):
                w[i] += c * (t1 - t0) / 2.0
                w[j] += c * (t1 - t0) / 2.0
        return w

    def green_matrix(self, w):
        """Exact g_mu at the nodes for the atomized measure with weights w.

        G0 = pinv(K) gives grounded-sum potentials; shifting by the
        mu-averages enforces the defining normalization, giving
        G = G0 - a 1' - 1 a' + (w'G0 w) 11' with a = G0 w.
        """
        G0 = np.linalg.pinv(self.laplacian)
        a = G0 @ w
        s = float(w @ a)
        return G0 - a[:, None] - a[None, :] + s


def resistance(graph, x, y):
    net = NetworkModel(graph, [x, y])
    ix, iy = net.node(x), net.node(y)
    if ix == iy:
        return 0.0
    b = np.zeros(net.size)
    b[ix] = 1.0
    b[iy] = -1.0
    v = net.solve(b, iy)
    return float(v[ix])


def kernel_eval(kernel, e1, t1, e2, t2):
    """r at offsets t1 on e1 and t2 on e2 (broadcasting) through the monomial
    form [1, t, t^2] B [1, s, s^2]^T, B = kernel.biquad(e1, e2), one order
    per edge pair; on one edge |d| - d^2 inv."""
    t1 = np.asarray(t1, dtype=float)
    t2 = np.asarray(t2, dtype=float)
    scalar = t1.ndim == 0 and t2.ndim == 0
    if e1 == e2:
        d = t1 - t2
        vals = np.abs(d) - d * d * kernel.canonical_density[e1]
    else:
        if e1 > e2:
            e1, t1, e2, t2 = e2, t2, e1, t1
        B = kernel.biquad(e1, e2)
        a1, a2 = np.broadcast_arrays(np.atleast_1d(t1), np.atleast_1d(t2))
        P1 = np.vander(a1.ravel(), 3, increasing=True)
        P2 = np.vander(a2.ravel(), 3, increasing=True)
        vals = np.einsum("ia,ab,ib->i", P1, B, P2).reshape(a1.shape)
    if scalar:
        return float(np.asarray(vals).reshape(-1)[0])
    return vals


def discriminant_pairs(evaluator, points):
    """(mean of g_mu(x_i, x_j), mean of |g_mu(x_i, x_j)|) over i != j, pair
    by pair from rho_mu at the points, c_mu and one kernel point_eval."""
    rho = evaluator.rho.at_points(points)
    total = size = 0.0
    for i, j in itertools.combinations(range(len(points)), 2):
        r = evaluator.kernel.point_eval(points[i], points[j])
        gij = 0.5 * (rho[i] + rho[j] - r) - evaluator.c_mu
        total += 2.0 * gij
        size += 2.0 * abs(gij)
    pairs = len(points) * (len(points) - 1)
    return total / pairs, size / pairs


def _table_value(table, row, t):
    """One value of an EdgeTable from its raw arrays, as an mpmath number:
    the row's coefficients times the powers of t, plus jump * (t - a) for
    each kink of the row with a < t."""
    kr, ka, kj = table.kinks
    left = (kr == row) & (ka < t)
    t = mpmath.mpf(float(t))
    value = mpmath.polyval([mpmath.mpmathify(c) for c in table.coeffs[row][::-1]], t)
    for a, jump in zip(ka[left], kj[left]):
        value += mpmath.mpmathify(jump) * (t - mpmath.mpf(float(a)))
    return value


def _rounded(values, table):
    out = np.array([complex(v) for v in values])
    return out if np.iscomplexobj(table.coeffs) or np.iscomplexobj(table.kinks[2]) else out.real


def table_values(table, rows, t):
    """An EdgeTable at offsets t on the given rows, read from its raw arrays
    (coefficient powers plus the kinks left of each point, the former
    EdgeTable.values_at) at 40 digits and rounded once."""
    with mpmath.workdps(40):
        return _rounded([_table_value(table, r, x) for r, x in zip(rows, t)], table)


def _table_integrals(table):
    """Per-edge integrals over [0, L] of an EdgeTable's raw arrays: sum of
    c_k L^(k+1) / (k+1), plus J (L - a)^2 / 2 per kink (the former
    EdgeTable.integrals), as mpmath numbers."""
    L = [mpmath.mpf(float(x)) for x in table.graph.edge_arrays[1]]
    out = [sum(mpmath.mpmathify(c) * L[e] ** (k + 1) / (k + 1) for k, c in enumerate(row))
           for e, row in enumerate(table.coeffs)]
    for e, a, jump in zip(*table.kinks):
        out[e] += mpmath.mpmathify(jump) * (L[e] - mpmath.mpf(float(a))) ** 2 / 2
    return out


def table_integrals(table):
    """_table_integrals at 40 digits, rounded once."""
    with mpmath.workdps(40):
        return _rounded(_table_integrals(table), table)


def table_integrate(table, nu):
    """Integral of an EdgeTable against a measure from the raw arrays (the
    former EdgeTable.integrate) at 40 digits: the atoms' values, each
    density against the row coefficients through the moments L^(i+j+1) /
    (i+j+1), and per kink of jump J at a, J times the integral over [a, L]
    of (t - a) t^j d_j dt."""
    rows, at, mass, D = nu.arrays
    with mpmath.workdps(40):
        L = [mpmath.mpf(float(x)) for x in table.graph.edge_arrays[1]]
        total = sum(mpmath.mpmathify(m) * _table_value(table, r, a)
                    for r, a, m in zip(rows, at, mass))
        for e, (row, dens) in enumerate(zip(table.coeffs, D)):
            total += sum(mpmath.mpmathify(c) * mpmath.mpmathify(d)
                         * L[e] ** (i + j + 1) / (i + j + 1)
                         for i, c in enumerate(row) for j, d in enumerate(dens))
        for e, a, jump in zip(*table.kinks):
            a = mpmath.mpf(float(a))
            total += mpmath.mpmathify(jump) * sum(
                mpmath.mpmathify(d) * ((L[e] ** (j + 2) - a ** (j + 2)) / (j + 2)
                                       - a * (L[e] ** (j + 1) - a ** (j + 1)) / (j + 1))
                for j, d in enumerate(D[e]))
        return complex(total)


def j_value(graph, zeta, y, x):
    """Voltage at x with unit current from y to zeta, grounded at zeta."""
    net = NetworkModel(graph, [zeta, y, x])
    iz, iy, ix = net.node(zeta), net.node(y), net.node(x)
    b = np.zeros(net.size)
    b[iy] += 1.0
    b[iz] -= 1.0
    v = net.solve(b, iz)
    return float(v[ix])


def green_value(graph, atoms, densities, x, y, per_edge=0):
    """g_mu(x, y); exact for purely atomic mu, O(per_edge**-2) otherwise."""
    net = NetworkModel(graph, [p for p, _ in atoms] + [x, y], per_edge)
    w = net.mu_weights(atoms, densities)
    G = net.green_matrix(w)
    return float(G[net.node(x), net.node(y)])


_GAUSS_3 = np.polynomial.legendre.leggauss(3)


def potential_value(graph, atoms, densities, x):
    """Integral of r(x, zeta) d nu(zeta), nu = atoms + polynomial densities.

    r(x, .) is quadratic on each piece of an edge (x's edge split at x), so
    3-point Gauss-Legendre nodes on every piece integrate densities up to
    degree 3 exactly.  One network marked at x, the atoms and those nodes
    gives every r(x, node) as the diagonal of one grounded inverse.
    """
    nodes, weights = _GAUSS_3
    sources = list(atoms)
    for e in graph.edges:
        if e.id not in densities:
            continue
        cuts = [0.0, e.length]
        if e.id == x.edge and 0.0 < x.offset < e.length:
            cuts = [0.0, float(x.offset), e.length]
        for a, b in zip(cuts, cuts[1:]):
            t = 0.5 * (a + b) + 0.5 * (b - a) * nodes
            w = 0.5 * (b - a) * weights * npoly.polyval(t, densities[e.id])
            sources += [(graph.point(e.id, float(ti)), wi) for ti, wi in zip(t, w)]
    net = NetworkModel(graph, [x] + [p for p, _ in sources])
    ground = net.node(x)
    keep = [k for k in range(net.size) if k != ground]
    r = np.zeros(net.size)
    r[keep] = np.diag(np.linalg.inv(net.laplacian[np.ix_(keep, keep)]))
    return sum(m * r[net.node(p)] for p, m in sources)


_GAUSS_8 = np.polynomial.legendre.leggauss(8)


def measure_integral(graph, atoms, densities, f, cuts=()):
    """Integral of f(point) against atoms + polynomial densities.

    Atoms exactly; densities by 8-point Gauss-Legendre on every piece of an
    edge between the given cut points, exact when f times the density is a
    polynomial of degree <= 15 on each piece.
    """
    total = sum(m * f(p) for p, m in atoms)
    nodes, weights = _GAUSS_8
    for e in graph.edges:
        if e.id not in densities:
            continue
        inner = {float(p.offset) for p in cuts if p.edge == e.id}
        pts = sorted({0.0, e.length} | {t for t in inner if 0.0 < t < e.length})
        for a, b in zip(pts, pts[1:]):
            t = 0.5 * (a + b) + 0.5 * (b - a) * nodes
            w = 0.5 * (b - a) * weights * npoly.polyval(t, densities[e.id])
            total += sum(wi * f(graph.point(e.id, float(ti))) for ti, wi in zip(t, w))
    return total


def kernel_eigenvalues(graph, atoms, densities, per_edge, count):
    """Smallest eigenvalues of the inverse integral operator, second route.

    Builds the Green matrix of the atomized measure on a uniform refinement
    and diagonalizes G M_dx (similar to a symmetric matrix, so eigenvalues
    are real); eigenvalues converge at O(per_edge**-2).
    """
    net = NetworkModel(graph, [p for p, _ in atoms], per_edge)
    w = net.mu_weights(atoms, densities)
    G = net.green_matrix(w)
    M = net.mass_matrix()
    evals = np.linalg.eigvals(G @ M)
    evals = np.real(evals[np.abs(np.imag(evals)) < 1e-9])
    evals = np.sort(evals[evals > 1e-12])[::-1]
    return [1.0 / d for d in evals[:count]]


def trig_moment(k, omega, length):
    """(int t^k cos(omega t) dt, int t^k sin(omega t) dt) over [0, length]."""
    re, _ = integrate.quad(
        lambda t: t**k * math.cos(omega * t), 0.0, length, limit=400
    )
    im, _ = integrate.quad(
        lambda t: t**k * math.sin(omega * t), 0.0, length, limit=400
    )
    return re, im


def exp_moments_row(omega, length, count):
    """I_k = int t^k exp(i omega t) over [0, length], k = 0..count, for one
    row in scalar arithmetic: the reference for the batched kernel, taking
    the same branch (closed form or tail-summed series) for each k."""
    out = np.empty(count + 1, dtype=complex)
    x = omega * length
    k_closed = min(count, int(math.floor(x - 1.0))) if omega > 0 else -1
    if k_closed >= 0:
        E = complex(math.cos(x), math.sin(x))
        out[0] = (E - 1.0) / (1j * omega)
        for k in range(1, k_closed + 1):
            out[k] = (length**k * E - k * out[k - 1]) / (1j * omega)
    for k in range(k_closed + 1, count + 1):
        # L^(k+1) sum_j (i x)^j / (j! (k + j + 1)), added from the tail
        j = np.arange(0.0, 40.0 + math.ceil(7.5 * x))
        powers = np.cumprod(np.concatenate(([1.0], 1j * x / j[1:])))
        out[k] = length ** (k + 1.0) * np.cumsum((powers / (k + j + 1.0))[::-1])[-1]
    return out


def poly_moment_by_parts(coeffs, length, gamma, digits=150):
    """int_0^length q(t) exp(i gamma t) dt for the ascending coefficients of q,
    by integration by parts, sum_m (-1)^m [q^(m) exp(i gamma t)]_0^length /
    (i gamma)^(m+1), in mpmath at the given digits: the reference for the
    count plan's moment kernel, free of cancellation at any gamma length."""
    with mpmath.workdps(digits):
        q = [mpmath.mpf(float(c)) for c in coeffs]
        L, g = mpmath.mpf(float(length)), mpmath.mpf(float(gamma))
        E, total = mpmath.expj(g * L), mpmath.mpf(0)
        for m in range(len(q)):
            der = [q[k] * mpmath.ff(k, m) for k in range(m, len(q))]
            at_L = sum(c * L ** i for i, c in enumerate(der))
            total += (-1) ** m * (at_L * E - der[0]) / (1j * g) ** (m + 1)
        return complex(total)


def overlap(coeffs, length):
    """Coefficients in y of the integral over [0, y] of d(t) d(t + length - y) dt,
    for one row by a double loop of convolutions over the binomial expansion
    of (t + length - y)^k: the reference for the eigenvalue count's table."""
    n = coeffs.size
    out = np.zeros(2 * n)
    for k, a in enumerate(coeffs):
        power = np.ones(1)  # (length - y)^(k - m)
        for m in range(k, -1, -1):  # a C(k, m) t^m (length - y)^(k - m) d(t)
            anti = np.zeros(m + n + 1)  # integral over [0, y] of t^m d(t) dt
            anti[m + 1:] = coeffs / np.arange(m + 1, m + n + 1)
            term = a * math.comb(k, m) * np.convolve(anti, power)
            out[:term.size] += term
            power = np.convolve(power, [length, -1.0])
    return out


def _particular(coeffs, gamma):
    """h with h'' + gamma^2 h = gamma^2 g: sum_k (-1)^k g^(2k) / gamma^(2k)."""
    term = np.atleast_1d(np.asarray(coeffs, dtype=float)).copy()
    h = np.zeros_like(term)
    sign = 1.0
    while np.any(term != 0.0):
        h = npoly.polyadd(h, sign * term)
        term = np.atleast_1d(npoly.polyder(term, 2)) / (gamma * gamma)
        sign = -sign
    return np.atleast_1d(h)


_GAUSS_100 = np.polynomial.legendre.leggauss(100)


def _gauss_trig_moments(coeffs, omega, length):
    """(int p cos(omega t), int p sin(omega t)) over [0, length] by one
    100-node Gauss-Legendre rule, whose error is far below rounding for
    omega * length <= 60 and the low-degree densities of the suite."""
    x, w = _GAUSS_100
    t = 0.5 * length * (x + 1.0)
    pw = 0.5 * length * w * npoly.polyval(t, coeffs)
    return float(pw @ np.cos(omega * t)), float(pw @ np.sin(omega * t))


def secular_matrix(problem, gamma):
    """Raw M(gamma) of a SpectralProblem, assembled entry by entry.

    Reads only the problem's working graph, column layout, densities and
    atom masses; rows follow problem.row_tags (continuity and derivative
    balance per vertex, then the integral row), columns (A_e, B_e, ..., C).
    """
    N = problem.size
    M = np.zeros((N, N))
    ccol = N - 1
    g = gamma
    col = {e.id: 2 * k for k, e in enumerate(problem.edges)}
    parts = {e.id: _particular(problem.mu.density(e.id), g) for e in problem.edges}
    val = {}  # (edge id, end) -> (A, B, C) coefficients of f at the endpoint
    der = {}  # (edge id, end) -> coefficients of the inward derivative
    for e in problem.edges:
        h = parts[e.id]
        hp = np.atleast_1d(npoly.polyder(h))
        L = e.length
        cg, sg = math.cos(g * L), math.sin(g * L)
        val[(e.id, 0)] = (1.0, 0.0, float(npoly.polyval(0.0, h)))
        val[(e.id, 1)] = (cg, sg, float(npoly.polyval(L, h)))
        der[(e.id, 0)] = (0.0, g, float(npoly.polyval(0.0, hp)))
        der[(e.id, 1)] = (g * sg, -g * cg, -float(npoly.polyval(L, hp)))

    def add(row, e, coeffs, sign=1.0):
        row[col[e.id]] += sign * coeffs[0]
        row[col[e.id] + 1] += sign * coeffs[1]
        row[ccol] += sign * coeffs[2]

    r = 0
    for v in problem.graph.vertices:
        inc = problem.graph.incidences(v)
        e0, end0 = inc[0]
        for e, end in inc[1:]:
            add(M[r], e, val[(e.id, end)])
            add(M[r], e0, val[(e0.id, end0)], -1.0)
            r += 1
        for e, end in inc:
            add(M[r], e, der[(e.id, end)])
        M[r, ccol] -= g * g * problem._atom_mass.get(v, 0.0)
        r += 1
    for e in problem.edges:
        dens = problem.mu.density(e.id)
        if np.any(dens != 0.0):
            cmom, smom = _gauss_trig_moments(dens, g, e.length)
            anti = npoly.polyint(npoly.polymul(parts[e.id], dens))
            add(M[r], e, (cmom, smom, float(npoly.polyval(e.length, anti))))
    for v, mass in problem._atom_mass.items():
        e0, end0 = problem.graph.incidences(v)[0]
        add(M[r], e0, val[(e0.id, end0)], mass)
    return M


def von_below_spectrum(graph, gamma_max):
    """Exact spectrum of an equilateral graph under the dx-normalized measure.

    von Below (Linear Algebra Appl. 71, 1985): with edge length a, each
    eigenvalue mu != +-1 of D^-1/2 A D^-1/2, of multiplicity p, gives the
    roots gamma a in {theta, 2 k pi +- theta} (theta = arccos mu), each of
    multiplicity p; gamma a = j pi has multiplicity m - n + 2 when j is even
    or the graph is bipartite, and m - n otherwise.  Returns the ascending
    (lambda, multiplicity) pairs with gamma <= gamma_max.
    """
    a = graph.edges[0].length
    if any(abs(e.length - a) > 1e-12 * a for e in graph.edges):
        raise ValueError("graph is not equilateral")
    index = {v: i for i, v in enumerate(graph.vertices)}
    n, m = len(index), len(graph.edges)
    A = np.zeros((n, n))
    for e in graph.edges:
        A[index[e.u], index[e.v]] += 1.0
        A[index[e.v], index[e.u]] += 1.0
    d = A.sum(axis=1)
    mus = np.linalg.eigvalsh(A / np.sqrt(np.outer(d, d)))
    groups = []  # [mu, multiplicity]
    for mu in mus:
        if groups and mu - groups[-1][0] < 1e-9:
            groups[-1][1] += 1
        else:
            groups.append([mu, 1])
    bipartite = mus[0] < -1.0 + 1e-9
    top = gamma_max * a
    roots = []
    for mu, p in groups:
        if abs(abs(mu) - 1.0) < 1e-9:
            continue
        theta = math.acos(mu)
        k = 0
        while 2 * k * math.pi - theta <= top:
            roots += [(s, p) for s in (2 * k * math.pi + theta, 2 * k * math.pi - theta)
                      if 0.0 < s <= top]
            k += 1
    for j in range(1, int(top / math.pi) + 1):
        p = m - n + 2 if j % 2 == 0 or bipartite else m - n
        if p > 0:
            roots.append((j * math.pi, p))
    return [((s / a) ** 2, p) for s, p in sorted(roots)]


def svd_eigenpair(graph, mu, gamma):
    """The Eigenpair at gamma by the former route of eigenfunctions_at: the
    nullspace of M (SpectralProblem.nullspace, one SVD), then the package's
    own Gram orthonormalization and probe rotation."""
    problem = _problem(graph, mu)
    (vecs,) = spectral._orthonormal(problem, np.array([gamma]),
                                    np.array([problem.nullspace(gamma)]))
    return spectral._eigenpair(problem, gamma, vecs)


def scan_spectrum(problem, gamma_max, step):
    """Roots of det M(gamma) of a SpectralProblem below gamma_max, as
    ascending (gamma, multiplicity) pairs, from a plain grid scan.

    Sign changes of det M are located by brentq, and local minima of the
    relative smallest singular value sigma in cells without one are taken
    as candidates too.  Each candidate is polished by minimizing sigma
    over its offset (so that the bounded minimizer's relative tolerance
    applies to the offset), and kept when sigma falls below 1e-6; the
    multiplicity is the number of relative singular values below 1e-6
    there.  A fine step resolves close pairs that a coarse grid merges.
    """
    def det(g):
        return np.linalg.det(problem.matrix(g))

    def svals(g):
        s = np.linalg.svd(problem.matrix(g), compute_uv=False)
        return s / s[0]

    grid = np.arange(step, gamma_max, step)
    dets = np.array([det(g) for g in grid])
    smin = np.array([svals(g)[-1] for g in grid])
    cands = [(brentq(det, grid[i], grid[i + 1], maxiter=1000), step / 8.0)
             for i in range(len(grid) - 1) if dets[i] * dets[i + 1] < 0.0]
    for i in range(1, len(grid) - 1):
        a, b = grid[i - 1], grid[i + 1]
        if smin[i] <= min(smin[i - 1], smin[i + 1]) \
                and not any(a <= r <= b for r, _ in cands):
            cands.append((grid[i], step))
    roots = []
    for r, h in sorted(cands):
        best = minimize_scalar(lambda t: svals(r + t)[-1], bounds=(-h, h),
                               method="bounded", options={"xatol": 1e-15})
        if best.fun < 1e-6:
            roots.append(r + best.x)
    return [(g, int(np.sum(svals(g) < 1e-6))) for g in roots]


def measure_arrays(graph, atoms, densities):
    """(densities, arrays) of a Measure by the per-edge loop it was once built
    with: each density checked against the graph and converted on its own,
    the all-zero ones dropped, the rest scattered row by row into the padded
    matrix.  atoms is the measure's merged, ordered (point, mass) list."""
    dens = {}
    for eid, coeffs in (densities or {}).items():
        graph.edge(eid)
        arr = np.atleast_1d(np.asarray(coeffs))
        if not np.iscomplexobj(arr):
            arr = arr.astype(float)
        if np.any(arr != 0):
            dens[eid] = arr
    dens = {k: dens[k] for k in sorted(dens)}
    row = {e.id: k for k, e in enumerate(graph.edges)}
    mass = np.array([m for _, m in atoms])
    dtype = np.result_type(float, mass, *dens.values())
    D = np.zeros((len(graph.edges), max(map(len, dens.values()), default=1)), dtype)
    for eid, c in dens.items():
        D[row[eid], :c.size] = c
    return dens, (np.array([row[p.edge] for p, _ in atoms], dtype=int),
                  np.array([p.offset for p, _ in atoms], dtype=float),
                  mass.astype(dtype), D)


def check_network(graph, y, points):
    """(Q, B) of the resistance check's subdivided network by the chain walk
    it was once built with: nodes at the vertices, then one per interior
    point in order of first appearance; per edge in graph order, a resistor
    between each pair of neighbours on its chain of nodes sorted by offset,
    added to Q one at a time; B has a column per point, +1 there and -1 at y."""
    n = len(graph.vertices)
    vindex = {v: i for i, v in enumerate(graph.vertices)}
    cuts = {}

    def node(p):
        v = graph.vertex_of(p)
        if v is not None:
            return vindex[v]
        return cuts.setdefault((p.edge, p.offset), n + len(cuts))

    iy = node(y)
    cols = [node(p) for p in points]
    chains = {}
    for (eid, t), i in cuts.items():
        chains.setdefault(eid, []).append((t, i))
    size = n + len(cuts)
    Q = np.zeros((size, size))
    for e in graph.edges:
        chain = [(0.0, vindex[e.u]), *sorted(chains.get(e.id, [])),
                 (e.length, vindex[e.v])]
        for (t0, i), (t1, j) in zip(chain, chain[1:]):
            c = 1.0 / (t1 - t0)
            Q[i, i] += c
            Q[j, j] += c
            Q[i, j] -= c
            Q[j, i] -= c
    B = np.zeros((size, len(cols)))
    B[cols, np.arange(len(cols))] += 1.0
    B[iy] -= 1.0
    return Q, B


def refine_root(ratio, a, b, root_tol):
    """Zero of u = ratio(gamma) in [a, b] by find_eigenvalues' bracketed
    secant iteration, as the plain loop it once was (None unless u goes from
    negative at a to positive at b)."""
    ua, ub = ratio(a), ratio(b)
    if not ua < 0.0 < ub:
        return None
    x0, u0, x1, u1 = a, ua, b, ub
    steps, converged = [math.inf, math.inf], False
    for _ in range(SECANT_MAX_ITER):
        x = x1 - u1 * (x1 - x0) / (u1 - u0) if u1 != u0 else math.nan
        if converged or abs(x - x1) <= 8.0 * np.finfo(float).eps * x1:
            return min(max(x, a), b) if abs(x - x1) <= steps[-1] else x1
        if not (a < x < b and abs(x - x1) <= 0.5 * steps[-2]):
            x = 0.5 * (a + b)
        ux = ratio(x)
        if ux == 0.0:
            return x
        a, b = (x, b) if ux < 0.0 else (a, x)
        steps.append(abs(x - x1))
        converged = steps[-1] < root_tol + 8.0 * np.finfo(float).eps * x
        x0, u0, x1, u1 = x1, u1, x, ux
    return x1


def refine_bracket(count, a, ra, b, rb, root_tol):
    """The root in the bracket [a, b] (ra and rb the count's readings at its
    ends) by find_eigenvalues' route, one gamma at a time: the secant on the
    mean of the crossing eigenvalues of D B D, on the golden plan if an edge
    pole is within POLE_REL of the bracket, with D from that plan's B at b
    (a and b with their own, and every gamma where b > 2a); then kept only
    if the k crossing eigenvalues vanish to DEFAULT_RANK_TOL at the last
    gamma read and, where they straddle zero there, the count
    DEFAULT_ROOT_TOL either side of the root is that of a and of b."""
    top, k = rb[0], rb[0] - ra[0]
    plan = count.golden if _near_pole(count.whole.lengths, a, b) else count.whole
    scales = () if b > 2.0 * a else (plan.readings(np.array([b]))[0][3][None],)
    last = []

    def ratio(gamma):
        last.append(plan.readings(np.array([gamma]), *(() if gamma in (a, b) else scales))[0])
        return float(_crossing(last[-1], top, k).sum()) / k

    root = refine_root(ratio, a, b, root_tol)
    w, crossing = np.abs(last[-1][2]), _crossing(last[-1], top, k)
    if root is None or np.abs(crossing).max() > DEFAULT_RANK_TOL * w.max():
        return None
    if crossing.min() >= 0.0 or crossing.max() <= 0.0:
        return root
    side = np.array([root * (1.0 - DEFAULT_ROOT_TOL), root * (1.0 + DEFAULT_ROOT_TOL)])
    return root if [r[0] for r in count.readings(side)] == [ra[0], top] else None


def depth_first_eigenvalues(graph, mu, gamma_max):
    """(eigenvalue, multiplicity) pairs of find_eigenvalues at its default
    floor and tolerances, by the depth-first walk of the bracket tree it once
    made on a fresh SpectralProblem: one count reading per midpoint and
    refine_bracket per narrow bracket, each a scalar call."""
    problem = SpectralProblem(graph, mu)
    ell = total_length(problem.graph)
    width = math.pi / (8.0 * ell)
    count = EigenvalueCount(problem)

    def reading(gamma):
        return count.readings(np.array([gamma]))[0]

    gamma_floor = DEFAULT_GAMMA_FLOOR / ell
    out = []
    stack = [(gamma_floor, reading(gamma_floor), gamma_max, reading(gamma_max))]
    while stack:  # left half on top: roots come out ascending
        a, ra, b, rb = stack.pop()
        jump = rb[0] - ra[0]
        if jump == 0:
            continue
        if b - a <= width:
            root = refine_bracket(count, a, ra, b, rb, DEFAULT_ROOT_TOL / ell)
            if root is not None:
                out.append((root * root, jump))
                continue
            assert b - a > 4.0 * np.finfo(float).eps * b, "no root at float resolution"
        mid = 0.5 * (a + b)
        rm = reading(mid)
        assert ra[0] <= rm[0] <= rb[0], "count not monotone"
        stack += [(mid, rm, b, rb), (a, ra, mid, rm)]
    return out


def pole_plans(count, gs):
    """The plan of an EigenvalueCount at each gamma of the 1-D array gs by
    its former rule: golden where some edge has x = gamma L / pi with
    |x - round x| < POLE_REL x (round x = 0 would need x < POLE_REL x, so
    only the poles, positive integers, are caught)."""
    x = gs[:, None] * (count.whole.lengths / math.pi)
    near = (np.abs(x - np.round(x)) < POLE_REL * x).any(axis=1)
    return [count.golden if n else count.whole for n in near.tolist()]


def deflated_counts(plan, gs):
    """N_mu at each of the 1-D array gs from the arrays of one plan of an
    EigenvalueCount (its whole or golden pieces), as the count was read
    before the bordered matrix B: #pos(Lambda) and the sign of
    w = E - f^T Lambda^-1 f apart, with Lambda's constant direction
    deflated.  x = c 1 + (0, y) and the exact row sums r = Lambda 1 give
    #pos(Lambda) = #pos(Lambda_22) + [sum r - r_2^T Lambda_22^-1 r_2 > 0],
    and w by the same elimination, from one stacked solve against Lambda_22
    with r_2 and f_2 as its two right-hand sides."""
    g, L, N, B = gs[:, None], plan.lengths, plan.nodes, len(gs)
    u, v = plan.ends.T  # each piece's two ends
    flat = np.concatenate((u * N + u, v * N + v, u * N + v, v * N + u))
    gL = g * L
    sg, cg = np.sin(gL), np.cos(gL)
    tg = g * np.tan(0.5 * gL)  # gamma (1 - c) / s, a row sum of one piece
    off = g / sg
    lam = np.bincount((flat + N * N * np.arange(B)[:, None]).ravel(),
                      np.concatenate((-cg * off, -cg * off, off, off), axis=1).ravel(),
                      minlength=B * N * N).reshape(B, N, N)
    ends = (np.concatenate((u, v)) + N * np.arange(B)[:, None]).ravel()
    r = np.bincount(ends, np.concatenate((tg, tg), axis=1).ravel(),
                    minlength=B * N).reshape(B, N)
    C, S = plan.d0 * sg / g, plan.d0 * 2.0 * np.sin(0.5 * gL) ** 2 / g
    energy = plan.d0 ** 2 * (2.0 * tg / (g * g) - L) / (g * g)
    if plan.poly.size:
        k = plan.poly
        I = _exp_moments(np.repeat(g, k.size), np.tile(L[k], B),
                         plan.overlap.shape[1] - 1).reshape(B, k.size, -1)
        z = np.sum(plan.dens[k] * I[..., :plan.dens.shape[1]], axis=-1)
        C[:, k], S[:, k] = z.real, z.imag
        zz = z * z * (cg[:, k] - 1j * sg[:, k])
        energy[:, k] = (zz.real - 2.0 * np.sum(plan.overlap * I.real, axis=-1)) \
            / (2.0 * g * sg[:, k])
    slopes = np.concatenate((C - cg * S / sg, S / sg), axis=1)
    f = plan.atoms + np.bincount(ends, slopes.ravel(), minlength=B * N).reshape(B, N)
    sub = lam[:, 1:, 1:]
    x = np.linalg.solve(sub, np.stack((r[:, 1:], f[:, 1:]), axis=2))
    rs, fs = x[..., :1], x[..., 1:]
    schur = r.sum(axis=1) - (r[:, None, 1:] @ rs)[:, 0, 0]
    z = f.sum(axis=1) - (r[:, None, 1:] @ fs)[:, 0, 0]
    w = energy.sum(axis=1) - (f[:, None, 1:] @ fs)[:, 0, 0] - z * z / schur
    rest = np.count_nonzero(np.linalg.eigvalsh(sub) > 0.0, axis=1) \
        + (schur > 0.0) - 1 + (w > 0.0)
    return [int(t) + n for t, n in zip(np.sum(np.floor(gL / math.pi), axis=1).tolist(),
                                       rest.tolist())]


def atom_count(graph, masses, gamma, digits=60):
    """N_mu(gamma) at `digits` digits for an atom-only measure (masses: vertex
    -> mass), from the definition the package's count rests on: sum_e
    floor(gamma L_e / pi) + #pos(B) - 1 with B = [[Lambda / gamma, f], [f^T,
    0]] on the vertices, Lambda the Dirichlet-to-Neumann matrix of the whole
    edges and f the atoms, B's inertia from mpmath's symmetric eigensolver,
    with gamma and the lengths read exactly from their floats."""
    with mpmath.workdps(digits):
        index = {v: i for i, v in enumerate(graph.vertices)}
        n, g = len(index), mpmath.mpf(gamma)
        B = mpmath.zeros(n + 1, n + 1)
        trig = 0
        for e in graph.edges:
            x = g * mpmath.mpf(e.length)
            u, v = index[e.u], index[e.v]
            B[u, u] -= mpmath.cot(x)
            B[v, v] -= mpmath.cot(x)
            B[u, v] += 1 / mpmath.sin(x)
            B[v, u] += 1 / mpmath.sin(x)
            trig += int(mpmath.floor(x / mpmath.pi))
        for vertex, mass in masses.items():
            B[n, index[vertex]] = B[index[vertex], n] = mpmath.mpf(mass)
        return trig + sum(1 for lam in mpmath.eigsy(B, eigvals_only=True) if lam > 0) - 1


def _roots_in(coeffs, a, b, tol=1e-12):
    """Sorted real roots of one polynomial inside (a, b), from numpy's
    polyroots, with the package's scale-relative tolerances."""
    c = np.asarray(coeffs)
    c = np.trim_zeros(c.astype(np.result_type(c, float)), "b")
    if c.size <= 1:
        return []
    imag_tol, end_tol = tol * max(abs(a), abs(b)), tol * (b - a)
    return sorted(float(r.real) for r in npoly.polyroots(c)
                  if abs(r.imag) < imag_tol and a + end_tol < r.real < b - end_tol)


def piecewise_extremes(breaks, coeffs):
    """(min, max) of the real part of a piecewise polynomial, one piece and
    one derivative-root solve at a time: the per-piece loop that
    EdgeTable.extrema replaced.  A break takes the value of the piece right
    of it, the last break that of the last piece."""
    def value(t):
        k = min(max(int(np.searchsorted(breaks, t, side="right")) - 1, 0), len(coeffs) - 1)
        return npoly.polyval(t, coeffs[k])

    cands = [value(breaks[0])]
    for c, lo, hi in zip(coeffs, breaks, breaks[1:]):
        cands.append(value(hi))
        for r in _roots_in(npoly.polyder(np.real(c)), lo, hi):
            cands.append(npoly.polyval(r, c))
    vals = np.real(np.asarray(cands, dtype=complex))
    return float(vals.min()), float(vals.max())


def piecewise_abs_integral(breaks, coeffs):
    """Integral of |p| for a piecewise polynomial, one piece at a time: the
    loop that EdgeTable.abs_integrals replaced.  Exact on a real piece; a
    24-point Gauss rule between the real roots of a complex one."""
    total = 0.0
    for c, lo, hi in zip(coeffs, breaks, breaks[1:]):
        c = np.asarray(c)
        cuts = [lo] + _roots_in(c, lo, hi) + [hi]
        if not np.iscomplexobj(c):
            anti = npoly.polyint(c)
            for a, b in zip(cuts, cuts[1:]):
                total += abs(npoly.polyval(b, anti) - npoly.polyval(a, anti))
            continue
        x, w = np.polynomial.legendre.leggauss(24)
        parts = []
        for a, b in zip(cuts, cuts[1:]):
            half = 0.5 * (b - a)
            parts.append(float((half * w) @ np.abs(npoly.polyval(0.5 * (a + b) + half * x, c))))
        total += math.fsum(parts)
    return total


def remap_point(remaps, point):
    """A point carried through a PointRemap chain one remap at a time."""
    return functools.reduce(lambda p, remap: remap(p), remaps, point)


def solution_value(f, point, derivative=False):
    """An EdgeBasisSolution, or its derivative, at one point of the caller's
    or the working graph: remap_point, then npoly.polyval of the edge's row
    of particular solutions (or of its npoly.polyder)."""
    p = remap_point(f.remaps, point)
    k = f.edges[p.edge]
    A, B = f.ab[k]
    g, t = f.gamma, np.asarray(p.offset, dtype=float)
    if derivative:
        return -A * g * np.sin(g * t) + B * g * np.cos(g * t) \
            + f.constant * npoly.polyval(t, npoly.polyder(f.h[k]))
    return A * np.cos(g * t) + B * np.sin(g * t) + f.constant * npoly.polyval(t, f.h[k])


def mercer_sum(eigenpairs, x, y):
    """Sum of f(x) f(y) / lambda over the functions of the eigenpairs, one
    term at a time."""
    total = 0.0
    for pair in eigenpairs:
        for f in pair.eigenfunctions:
            total += float(solution_value(f, x)) * float(solution_value(f, y)) / pair.eigenvalue
    return total


def mercer_function_loop(eigenpairs, x, y):
    """The former route of mercer_partial_sum: each function read at x and y
    on its own (its value), and the terms f(x) f(y) / lambda summed in order
    by one cumsum."""
    terms = [np.prod(f.value([x.edge, y.edge], [x.offset, y.offset])) / pair.eigenvalue
             for pair in eigenpairs for f in pair.eigenfunctions]
    return float(np.cumsum([0.0, *terms])[-1])


def vertex_residuals(problem, f):
    """(continuity, derivative-balance) residuals of a solution of the
    SpectralProblem, vertex by vertex and incidence by incidence: the worst
    |f(end) - f(first end)| and |sum of outgoing slopes - gamma^2 mass C|."""
    work = problem.graph
    cont = der = 0.0
    for v in work.vertices:
        inc = work.incidences(v)
        e0, end0 = inc[0]
        base = solution_value(f, PointOnGraph(e0.id, 0.0 if end0 == 0 else e0.length))
        balance = 0.0
        for e, end in inc:
            p = PointOnGraph(e.id, 0.0 if end == 0 else e.length)
            cont = max(cont, abs(float(solution_value(f, p)) - float(base)))
            d = float(solution_value(f, p, derivative=True))
            balance += d if end == 0 else -d
        balance -= f.gamma * f.gamma * problem._atom_mass.get(v, 0.0) * f.constant
        der = max(der, abs(balance))
    return cont, der


def operator_residual(graph, mu, eigenpair, samples_per_edge):
    """max over the functions and the grid points x of |integral of g_mu(x,
    y) f(y) dy - f(x) / lambda| on the working graph, one grid point and one
    pair-form call per kink at a time; the grid is every vertex (at its
    point_at_vertex) and samples_per_edge interior points per edge."""
    problem = _problem(graph, mu)
    work, L = problem.graph, np.array([e.length for e in problem.edges])
    evaluator = GreenEvaluator(work, problem.mu)
    grid = [work.point_at_vertex(v) for v in work.vertices]
    for e in work.edges:
        for t in np.linspace(0.0, e.length, samples_per_edge + 2)[1:-1]:
            grid.append(work.point(e.id, float(t)))
    worst = 0.0
    for x in grid:
        profile = evaluator.g_profile(x)
        for f in eigenpair.eigenfunctions:
            p = f.constant * f.h
            total = np.sum(_pair_form(L, f.gamma, f.ab, p, 0.0, 0.0 * f.ab,
                                      np.real(profile.coeffs)))
            rows, a, jumps = profile.kinks
            if rows.size:
                kink = np.real(jumps)[:, None] * np.column_stack((-a, np.ones_like(a)))
                args = (f.gamma, f.ab[rows], p[rows], 0.0, 0.0 * f.ab[rows], kink)
                total += np.sum(_pair_form(L[rows], *args) - _pair_form(a, *args))
            fx = float(solution_value(f, x))
            worst = max(worst, abs(float(total) - fx / eigenpair.eigenvalue))
    return worst


def _vertex_distances(graph, source):
    dist = {v: math.inf for v in graph.vertices}
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for e, end in graph.incidences(v):
            w = e.v if end == 0 else e.u
            nd = d + e.length
            if nd < dist[w]:
                dist[w] = nd
                heapq.heappush(heap, (nd, w))
    return dist


def path_distance(graph, p, q):
    """Shortest-path metric d(p, q) between two points, by Dijkstra on the
    graph subdivided at both."""
    g1, vp, remap = subdivide_at(graph, p)
    g2, vq, _ = subdivide_at(g1, remap(q))
    return _vertex_distances(g2, vp)[vq]


def dirichlet_inner(graph, f1, f2):
    """Exact integral of f1' f2' over the graph for two EdgeBasisSolutions:
    the package's pair form of their derivatives."""
    return float(np.sum(_pair_form(
        _row_lengths(graph, f1, f2),
        f1.gamma, f1.ab[:, ::-1] * [f1.gamma, -f1.gamma], polyder_rows(f1.constant * f1.h),
        f2.gamma, f2.ab[:, ::-1] * [f2.gamma, -f2.gamma], polyder_rows(f2.constant * f2.h))))


def sup_norm(f, graph, samples_per_edge=64):
    """Grid estimate of the supremum norm of an EdgeBasisSolution."""
    t = np.linspace(0.0, graph.edge_arrays[1], samples_per_edge, axis=1)
    return float(np.max(np.abs(f.value([[e.id] for e in graph.edges], t))))


def cpa_hat(graph, vertex):
    """The CPAFunction that is 1 at the given vertex, 0 at every other vertex
    and affine on edges."""
    return CPAFunction(graph, {vertex: 1.0})
