"""Green's functions g_mu(x, y) and everything built from them.

For a unit measure mu the evaluator stores the resistance potential
rho_mu(x) = integral of r(x, zeta) d mu(zeta) in array form (one
coefficient row per edge plus the atoms' kinks, circuit.EdgeTable), plus
the constant c_mu = (1/2) double integral of r against mu.  Then

    g_mu(x, y) = (rho_mu(x) + rho_mu(y) - r(x, y)) / 2 - c_mu,

which satisfies Delta_x g = delta_y - mu and integrates to zero against mu;
both facts are exercised by tests rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import circuit
from .graph_core import ValidationError, total_length
from .measure import Measure, integrate_polys_against, lebesgue_measure
from .numerics import NumericError

TAU_INDEPENDENCE_TOL = 1e-10
TRACE_COMPARISON_TOL = 1e-7
DISCRIMINANT_SLACK = 1e-9


class GreenEvaluator:
    """Evaluates g_mu(x, y) exactly through rho_mu, c_mu, and r(x, y)."""

    def __init__(self, graph, mu):
        mu.require_reference()
        self.graph = graph
        self.mu = mu
        self.kernel = circuit.resistance_kernel(graph)
        self.rho = self.kernel.potential(mu)
        self.c_mu = float(np.real(0.5 * self.rho.integrate(mu)))

    def rho_at(self, point):
        return float(np.real(self.rho[point.edge](point.offset)))

    def g(self, x, y):
        r = self.kernel.point_eval(x, y)
        return 0.5 * (self.rho_at(x) + self.rho_at(y) - r) - self.c_mu

    def g_profile(self, y):
        """Per-edge PiecewisePoly of x -> g_mu(x, y), as an EdgeTable."""
        shift = 0.5 * self.rho_at(y) - self.c_mu
        return 0.5 * (self.rho + (-1.0) * self.kernel.profile_polys(y)) + shift

    def diag_poly(self, edge_id):
        """x -> g_mu(x, x) on one edge (r(x, x) = 0)."""
        return self.rho[edge_id] + (-self.c_mu)

    def sup_diag(self):
        """Exact sup over the graph of g_mu(x, x), via derivative roots."""
        return max(
            self.diag_poly(e.id).extreme_values()[1] for e in self.graph.edges
        )


def build_green(graph, mu):
    return GreenEvaluator(graph, mu)


def weak_laplacian_residual(evaluator, y, phi):
    """|integral of (d/dx g(x,y)) phi'(x) dx - (phi(y) - integral of phi dmu)|.

    phi is a CPAFunction; all integrals are exact piecewise-polynomial ones.
    """
    lhs = 0.0
    profile = evaluator.g_profile(y)
    phi_polys = {}
    for e in evaluator.graph.edges:
        pw = phi.to_piecewise(e.id)
        phi_polys[e.id] = pw
        lhs += float(np.real(
            (profile[e.id].derivative() * pw.derivative()).integral()
        ))
    rhs = phi.at_point(y) - float(np.real(
        integrate_polys_against(evaluator.mu, phi_polys)
    ))
    return abs(lhs - rhs)


def tau_constant(graph):
    """tau = (1/4) integral of (d/dx r(x, y))^2 dx, independent of y.

    The profile r(., y) has a linear derivative on each edge, so the
    integral is a closed form over all edges at once (EdgeTable.
    derivative_energy).  Computed at two distinct base points, a vertex and
    the midpoint of the last edge, and cross-checked relative to tau, so the
    check holds at any length scale.
    """
    y1 = graph.point_at_vertex(graph.vertices[0])
    e_last = graph.edges[-1]
    y2 = graph.point(e_last.id, 0.5 * e_last.length)
    kernel = circuit.resistance_kernel(graph)
    taus = [0.25 * kernel.profile_polys(y).derivative_energy() for y in (y1, y2)]
    if abs(taus[0] - taus[1]) > TAU_INDEPENDENCE_TOL * abs(taus[0]):
        raise NumericError(
            f"tau disagrees between base points: {taus[0]!r} vs {taus[1]!r}"
        )
    return taus[0]


def energy_pairing(evaluator, nu, omega):
    """<nu, omega>_mu = double integral of g_mu d nu d conj(omega)."""
    omega_bar = _conjugate_measure(omega)
    a = complex(nu.total_mass())
    b = complex(omega_bar.total_mass())
    rho_nu_omega = complex(evaluator.rho.integrate(omega_bar))
    rho_mu_nu = complex(evaluator.rho.integrate(nu))
    r_cross = complex(evaluator.kernel.potential(nu).integrate(omega_bar))
    value = (
        0.5 * b * rho_mu_nu
        + 0.5 * a * rho_nu_omega
        - 0.5 * r_cross
        - evaluator.c_mu * a * b
    )
    return value


def _conjugate_measure(nu):
    atoms = [(p, np.conjugate(m)) for p, m in nu.atoms]
    dens = {eid: np.conjugate(c) for eid, c in nu.densities.items()}
    return Measure(nu.graph, atoms, dens)


@dataclass
class DiscriminantReport:
    average_sum: float      # S = sum over i != j of g(x_i, x_j) / (N(N-1))
    lower_bound: float      # -M / (N - 1), proof-sharp
    sup_diagonal: float     # M = sup_x g(x, x)
    constant: float         # C = 2M, so S >= -C/N is implied for N >= 2


def discriminant_sum(evaluator, points):
    """Average off-diagonal Green sum over a point set, with its lower bound."""
    pts = list(points)
    n = len(pts)
    if n < 2:
        raise ValidationError("need at least two points")
    rho_vals = np.array([evaluator.rho_at(p) for p in pts])
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            r = evaluator.kernel.point_eval(pts[i], pts[j])
            gij = 0.5 * (rho_vals[i] + rho_vals[j] - r) - evaluator.c_mu
            total += 2.0 * gij
    s = total / (n * (n - 1))
    m = evaluator.sup_diag()
    bound = -m / (n - 1)
    if s < bound - DISCRIMINANT_SLACK:
        raise NumericError(
            f"discriminant sum {s!r} violates lower bound {bound!r}"
        )
    return DiscriminantReport(s, bound, m, 2.0 * m)


def trace_of_phi(evaluator):
    """Trace of phi_mu: integral of g_mu(x, x) dx = integral of rho_mu dx -
    c_mu * total length, exact."""
    rho_dx = math.fsum(np.real(evaluator.rho.integrals()))
    return rho_dx - evaluator.c_mu * total_length(evaluator.graph)


def trace_comparison(graph, mu1, mu2):
    """Both sides of the trace-change identity between two unit measures.

    lhs = Tr(phi_mu1); rhs = Tr(phi_mu2) - <dx, dx>_mu2 +
    <dx - mu1, dx - mu1>_mu2.  Agreement is asserted to 1e-7.
    """
    ev1 = build_green(graph, mu1)
    ev2 = build_green(graph, mu2)
    lhs = trace_of_phi(ev1)
    dx = lebesgue_measure(graph)
    diff = dx - mu1
    rhs = (
        trace_of_phi(ev2)
        - float(np.real(energy_pairing(ev2, dx, dx)))
        + float(np.real(energy_pairing(ev2, diff, diff)))
    )
    if abs(lhs - rhs) > TRACE_COMPARISON_TOL * max(1.0, abs(lhs)):
        raise NumericError(
            f"trace comparison mismatch: {lhs!r} vs {rhs!r}"
        )
    return lhs, rhs
