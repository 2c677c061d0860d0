"""Green's functions, tau, traces, energy pairing, discriminant bound."""

import networkx as nx
import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

import oracles
from conftest import circle_point, lollipop, random_mass_zero, random_point
from metragraph import (
    CPAFunction,
    Measure,
    NumericError,
    ValidationError,
    build_graph,
    builtin_graph,
    build_green,
    canonical_measure,
    dirac,
    effective_resistance,
    lebesgue_measure,
    resistance_profile,
    scale_graph,
    tau_constant,
    trace_of_phi,
)
from metragraph.circuit import resistance_kernel
from metragraph.graph_core import total_length
from metragraph.green import (
    discriminant_sum,
    energy_pairing,
    trace_comparison,
    weak_laplacian_residual,
)


def graph_named(name):
    return lollipop() if name == "lollipop" else builtin_graph(name)


def shaped_measure(graph, rng, dtype=float):
    """Mass-1 measure (before the dtype cast) with an interior atom, vertex
    atoms sitting at offset 0 and at offset L, and densities of degree 0, 1,
    2, 3, 0, ... on successive edges."""
    e0, e1 = graph.edges[0], graph.edges[-1]
    atoms = [(random_point(graph, rng, interior=True), 0.3),
             (graph.point(e0.id, 0.0), 0.2), (graph.point(e1.id, e1.length), -0.1)]
    dens = {e.id: rng.uniform(0.5, 1.5, k % 4 + 1) / e.length ** np.arange(k % 4 + 1)
            for k, e in enumerate(graph.edges)}
    scale = 0.6 / Measure(graph, (), dens).total_mass()
    if dtype is complex:
        atoms = [(p, m * complex(1.0, rng.normal())) for p, m in atoms]
        dens = {eid: c * (1.0 + 1j * rng.normal(size=c.size))
                for eid, c in dens.items()}
    return Measure(graph, atoms, {eid: c * scale for eid, c in dens.items()})


def signed_linear_measure(graph, rng):
    """Mass-1 measure: an interior atom of mass 0.8 and on every edge the
    density (1 - 1.6 t / L) / total length, which changes sign at 0.625 L."""
    ell = total_length(graph)
    dens = {e.id: np.array([1.0, -1.6 / e.length]) / ell for e in graph.edges}
    return Measure(graph, [(random_point(graph, rng, interior=True), 0.8)], dens)


def random_cubic(seed, m):
    """Connected simple cubic graph with m edges, lengths from U[0.5, 2]."""
    rng = np.random.default_rng(seed)
    nxg = nx.random_regular_graph(3, 2 * m // 3, seed=seed)
    assert nx.is_connected(nxg)
    return build_graph([f"v{i}" for i in nxg.nodes], [
        (f"e{k}", f"v{a}", f"v{b}", float(rng.uniform(0.5, 2.0)))
        for k, (a, b) in enumerate(nxg.edges)])


def wide_spread():
    """Parallel edges of lengths 1e-7 and 1 plus a tail of length 0.5."""
    return build_graph(["a", "b", "c"], [("e1", "a", "b", 1e-7), ("e2", "a", "b", 1.0),
                                         ("e3", "b", "c", 0.5)])


def halves(graph):
    a = graph.point("e1", 0.0)
    b = graph.point("e1", graph.edges[0].length)
    return Measure(graph, [(a, 0.5), (b, 0.5)])


def test_interval_dx_closed_form(interval, rng):
    ev = build_green(interval, lebesgue_measure(interval))
    for _ in range(20):
        x, y = sorted(rng.uniform(0, 1, size=2))
        want = 0.5 * x * x + 0.5 * (1 - y) ** 2 - 1.0 / 6.0
        got = ev.g(interval.point("e1", x), interval.point("e1", y))
        assert got == pytest.approx(want, abs=1e-12)


def test_interval_two_endpoint_atoms_closed_form(interval, rng):
    ev = build_green(interval, halves(interval))
    for _ in range(20):
        x, y = rng.uniform(0, 1, size=2)
        want = 0.25 - 0.5 * abs(x - y)
        got = ev.g(interval.point("e1", x), interval.point("e1", y))
        assert got == pytest.approx(want, abs=1e-12)


def test_interval_dirac_closed_form(interval, rng):
    ev = build_green(interval, dirac(interval, interval.point("e1", 0.0)))
    for _ in range(20):
        x, y = rng.uniform(0, 1, size=2)
        got = ev.g(interval.point("e1", x), interval.point("e1", y))
        assert got == pytest.approx(min(x, y), abs=1e-12)


def test_circle_dx_closed_form(circle, rng):
    ev = build_green(circle, lebesgue_measure(circle))
    for _ in range(20):
        s, t = rng.uniform(0, 1, size=2)
        u = abs(s - t)
        want = 0.5 * u * u - 0.5 * u + 1.0 / 12.0
        got = ev.g(circle_point(circle, s), circle_point(circle, t))
        assert got == pytest.approx(want, abs=1e-12)


def test_circle_dirac_closed_form(circle, rng):
    ev = build_green(circle, dirac(circle, circle.point("e1.1", 0.0)))
    for _ in range(20):
        s, t = sorted(rng.uniform(0, 1, size=2))
        got = ev.g(circle_point(circle, s), circle_point(circle, t))
        assert got == pytest.approx(s * (1.0 - t), abs=1e-12)


@pytest.mark.parametrize("name", ["banana:3", "tetrahedron", "petersen"])
def test_green_matches_atomic_oracle(name, rng):
    g = builtin_graph(name)
    pts = [random_point(g, rng) for _ in range(3)]
    w = rng.uniform(0.2, 1.0, size=3)
    w /= w.sum()
    mu = Measure(g, list(zip(pts, map(float, w))))
    ev = build_green(g, mu)
    for _ in range(6):
        x, y = random_point(g, rng), random_point(g, rng)
        want = oracles.green_value(g, mu.atoms, {}, x, y)
        assert ev.g(x, y) == pytest.approx(want, abs=1e-9)


def test_green_matches_refined_density_oracle(rng, tetrahedron):
    mu = lebesgue_measure(tetrahedron, normalize=True)
    ev = build_green(tetrahedron, mu)
    dens = {e.id: 1.0 for e in tetrahedron.edges}
    for _ in range(4):
        x, y = random_point(tetrahedron, rng), random_point(tetrahedron, rng)
        want = oracles.green_value(tetrahedron, [], dens, x, y, per_edge=60)
        assert ev.g(x, y) == pytest.approx(want, abs=5e-5)


@pytest.mark.parametrize("name", ["banana:3", "tetrahedron", "petersen", "lollipop"])
def test_resistance_potential_matches_exact_oracle(name, rng):
    g = graph_named(name)
    e0, e1 = g.edges[0], g.edges[-1]
    vertex = g.point_at_vertex(g.vertices[0])
    signed = Measure(
        g,
        [(random_point(g, rng), 0.7), (random_point(g, rng), -1.3), (vertex, 0.4)],
        {e0.id: [0.5, -2.0 / e0.length], e1.id: [1.0, 3.0, -4.0 / e1.length]},
    )
    complex_mass = Measure(
        g,
        [(random_point(g, rng), 0.5 + 1.5j), (vertex, -0.25j)],
        {e1.id: np.array([1.0j, 2.0, -1.0 + 0.5j])},
    )
    kernel = resistance_kernel(g)
    for nu in (signed, complex_mass, shaped_measure(g, rng)):
        rho = kernel.potential(nu)
        xs = [random_point(g, rng) for _ in range(4)]
        xs += [g.point(e0.id, 0.37 * e0.length), g.point(e1.id, 0.81 * e1.length)]
        xs += [p for p, _ in nu.atoms]
        # |rho| <= total variation * total length, and the length is 1
        scale = nu.total_variation()
        for x in xs:
            want = oracles.potential_value(g, nu.atoms, nu.densities, x)
            assert abs(complex(rho[x.edge](x.offset)) - want) <= 1e-10 * scale


def oracle_rho(g, mu):
    return lambda x: oracles.potential_value(g, mu.atoms, mu.densities, x)


def oracle_integral(g, nu, f, kinks=()):
    """Integral of f against nu by quadrature, edges cut at nu's atoms and
    at the given kinks of f."""
    cuts = [p for p, _ in nu.atoms] + list(kinks)
    return oracles.measure_integral(g, nu.atoms, nu.densities, f, cuts)


@pytest.mark.parametrize("name", ["interval", "banana:3", "tetrahedron", "lollipop"])
def test_green_constant_and_trace_match_quadrature(name, rng):
    # c_mu = (1/2) integral of rho_mu d mu and Tr(phi_mu) = integral of
    # (rho_mu - c_mu) dx, each against quadrature of the exact oracle
    # potential; the lollipop's canonical measure has no density on its tail
    g = graph_named(name)
    dx = lebesgue_measure(g)
    for mu in (shaped_measure(g, rng), canonical_measure(g)):
        ev = build_green(g, mu)
        rho = oracle_rho(g, mu)
        c_mu = 0.5 * oracle_integral(g, mu, rho)
        assert ev.c_mu == pytest.approx(c_mu, abs=1e-12)
        trace = oracle_integral(g, dx, rho, [p for p, _ in mu.atoms]) - c_mu
        assert trace_of_phi(ev) == pytest.approx(trace, abs=1e-12)
    # the last mu is canonical: Tr(phi_can) = tau * total length
    tau = tau_constant(g)
    assert trace_of_phi(ev) == pytest.approx(tau * total_length(g), abs=1e-12)


@pytest.mark.parametrize("name", ["interval", "tetrahedron", "lollipop"])
def test_energy_pairing_complex_masses_match_quadrature(name, rng):
    # <nu, omega>_mu = B/2 int rho_mu dnu + A/2 int rho_mu d(omega bar)
    #   - 1/2 iint r dnu d(omega bar) - c_mu A B, A and B the masses of nu
    # and omega bar, every integral by quadrature of oracle potentials
    g = graph_named(name)
    mu = shaped_measure(g, rng)
    nu, omega = shaped_measure(g, rng, complex), shaped_measure(g, rng, complex)
    omega_bar = Measure(g, [(p, np.conj(m)) for p, m in omega.atoms],
                        {eid: np.conj(c) for eid, c in omega.densities.items()})
    a, b = complex(nu.total_mass()), complex(omega_bar.total_mass())
    rho = oracle_rho(g, mu)
    c_mu = 0.5 * oracle_integral(g, mu, rho)
    cross = oracle_integral(g, omega_bar, oracle_rho(g, nu), [p for p, _ in nu.atoms])
    want = (0.5 * b * oracle_integral(g, nu, rho, [p for p, _ in mu.atoms])
            + 0.5 * a * oracle_integral(g, omega_bar, rho, [p for p, _ in mu.atoms])
            - 0.5 * cross - c_mu * a * b)
    got = complex(energy_pairing(build_green(g, mu), nu, omega))
    assert abs(got - want) <= 1e-11 * abs(want)


@pytest.mark.parametrize("name", ["k33", "octahedron", "banana:4"])
def test_green_symmetry_and_normalization(name, rng):
    g = builtin_graph(name)
    for mu in (lebesgue_measure(g, normalize=True), canonical_measure(g)):
        ev = build_green(g, mu)
        x, y = random_point(g, rng), random_point(g, rng)
        assert ev.g(x, y) == pytest.approx(ev.g(y, x), abs=1e-11)
        # integral of g(., y) against mu vanishes: exact via the profile
        from metragraph.measure import integrate_polys_against

        val = integrate_polys_against(mu, ev.g_profile(y))
        assert float(np.real(val)) == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("name", ["tetrahedron", "k5", "circle", "cube"])
def test_canonical_green_is_half_resistance_shift(name, rng):
    g = builtin_graph(name)
    ev = build_green(g, canonical_measure(g))
    tau = tau_constant(g)
    for _ in range(8):
        x, y = random_point(g, rng), random_point(g, rng)
        want = -0.5 * effective_resistance(g, x, y) + tau
        assert ev.g(x, y) == pytest.approx(want, abs=1e-10)


def test_tau_values_and_scaling():
    assert tau_constant(builtin_graph("interval")) == pytest.approx(0.25)
    assert tau_constant(builtin_graph("circle")) == pytest.approx(1 / 12)
    g = builtin_graph("k33")
    assert tau_constant(scale_graph(g, 3.0)) == pytest.approx(
        3.0 * tau_constant(g), abs=1e-12
    )


@pytest.mark.parametrize("beta", [1e-6, 1e-3, 1e3, 1e5, 1e7, 1e8, 1e10])
def test_tau_scales_with_length(tetrahedron, beta):
    # the two base points are compared relative to tau; an absolute 1e-10
    # raised "tau disagrees between base points" from beta = 1e7 on
    tau = tau_constant(scale_graph(tetrahedron, beta))
    assert abs(tau / (beta * tau_constant(tetrahedron)) - 1.0) <= 1e-14


def oracle_derivative_energy(g, y):
    """Integral of (d/dx r(x, y))^2 from oracle resistances: r(., y) is
    quadratic on each edge piece (y's edge cut at y), so its values at the
    ends and the middle of a piece give the end slopes exactly."""
    total = 0.0
    for e in g.edges:
        cuts = [0.0, e.length]
        if e.id == y.edge and 0.0 < y.offset < e.length:
            cuts.insert(1, y.offset)
        for lo, hi in zip(cuts, cuts[1:]):
            f0, fm, f1 = (oracles.resistance(g, g.point(e.id, t), y)
                          for t in (lo, 0.5 * (lo + hi), hi))
            h = hi - lo
            s0, s1 = (4.0 * fm - 3.0 * f0 - f1) / h, (3.0 * f1 + f0 - 4.0 * fm) / h
            total += h * (s0 * s0 + s0 * s1 + s1 * s1) / 3.0
    return total


@pytest.mark.parametrize("beta", [1e-6, 1.0, 1e8])
def test_tau_closed_form_matches_resistance_oracle(beta):
    # base points at a vertex, inside a cycle edge and inside a bridge
    g = scale_graph(lollipop(), beta)
    assert tau_constant(g) == pytest.approx(0.125 * beta, rel=1e-13)
    for y in (g.point_at_vertex("a"), g.point("t2", 0.4 * g.edge("t2").length),
              g.point("s1", 0.7 * g.edge("s1").length)):
        want = oracle_derivative_energy(g, y)
        assert 0.25 * want == pytest.approx(tau_constant(g), rel=1e-10)
        energy = resistance_profile(g, y).derivative_energy()
        assert energy == pytest.approx(want, rel=1e-10)


def test_weak_laplacian_residual_small(rng):
    for name in ("interval", "tetrahedron", "petersen"):
        g = builtin_graph(name)
        for mu in (lebesgue_measure(g, normalize=True), canonical_measure(g)):
            ev = build_green(g, mu)
            y = random_point(g, rng)
            vals = {v: float(rng.normal()) for v in g.vertices}
            phi = CPAFunction(g, vals)
            assert weak_laplacian_residual(ev, y, phi) < 1e-10
    # interior nodes, one of them at y, under a signed measure with an atom
    g = lollipop()
    ev = build_green(g, shaped_measure(g, rng))
    y = random_point(g, rng, interior=True)
    interior = {e.id: [(f * e.length, float(rng.normal())) for f in (0.2, 0.55, 0.9)]
                for e in g.edges}
    interior[y.edge].append((y.offset, 1.5))
    phi = CPAFunction(g, {v: float(rng.normal()) for v in g.vertices}, interior)
    assert weak_laplacian_residual(ev, y, phi) < 1e-10


def test_trace_values(interval, circle):
    assert trace_of_phi(build_green(interval, lebesgue_measure(interval))) \
        == pytest.approx(1.0 / 6.0, abs=1e-12)
    d0 = dirac(interval, interval.point("e1", 0.0))
    assert trace_of_phi(build_green(interval, d0)) == pytest.approx(
        0.5, abs=1e-12
    )
    assert trace_of_phi(build_green(circle, lebesgue_measure(circle))) \
        == pytest.approx(1.0 / 12.0, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_trace_banana_closed_form(n):
    # 1/(6n): the Kirchhoff spectrum of n parallel edges of length 1/n is
    # (k pi n)^2 with multiplicity n, so the trace is sum n/(k pi n)^2; the
    # resistor-network double integral (1/2) iint r dx dy gives the same.
    g = builtin_graph(f"banana:{n}")
    got = trace_of_phi(build_green(g, lebesgue_measure(g, normalize=True)))
    assert got == pytest.approx(1.0 / (6.0 * n), abs=1e-12)


def test_trace_comparison_routes_agree(rng):
    g = builtin_graph("cube")
    mu1 = lebesgue_measure(g, normalize=True)
    mu2 = canonical_measure(g)
    lhs, rhs = trace_comparison(g, mu1, mu2)
    assert lhs == pytest.approx(rhs, abs=1e-9)
    lhs, rhs = trace_comparison(g, mu2, mu1)
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_energy_pairing_properties(rng):
    g = builtin_graph("k5")
    ev = build_green(g, canonical_measure(g))
    nu = random_mass_zero(g, rng)
    om = random_mass_zero(g, rng)
    # Hermitian symmetry and positivity
    assert complex(energy_pairing(ev, nu, om)) == pytest.approx(
        np.conjugate(complex(energy_pairing(ev, om, nu))), abs=1e-10
    )
    self_energy = complex(energy_pairing(ev, nu, nu))
    assert abs(self_energy.imag) < 1e-10
    assert self_energy.real >= -1e-10
    # agrees with the double sum of g over atoms for purely atomic measures
    atoms = [(random_point(g, rng), m) for m in (0.7, -0.7)]
    eta = Measure(g, atoms)
    direct = sum(
        mi * mj * ev.g(pi, pj) for pi, mi in atoms for pj, mj in atoms
    )
    assert complex(energy_pairing(ev, eta, eta)) == pytest.approx(
        direct, abs=1e-10
    )


@pytest.mark.parametrize("name", ["lollipop", "wide", "cubic6", "cubic30", "cubic90"])
def test_sup_diag_matches_per_piece_loop(name, rng):
    g = {"lollipop": lollipop, "wide": wide_spread}.get(name) or \
        (lambda: random_cubic(int(name[5:]), int(name[5:])))
    g = g()
    for mu in (canonical_measure(g), shaped_measure(g, rng), signed_linear_measure(g, rng)):
        ev = build_green(g, mu)
        want = max(oracles.piecewise_extremes(
            ev.rho[e.id].breaks, [npoly.polyadd(c, [-ev.c_mu]) for c in ev.rho[e.id].coeffs])[1]
            for e in g.edges)
        assert ev.sup_diag() == pytest.approx(want, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("beta", [1e-9, 1.0, 1e8])
def test_discriminant_check_is_scale_free(beta, rng, monkeypatch):
    # the slack scales with the total length: at beta = 1e-9 an absolute
    # slack of 1e-9 exceeded every value of g and the check never fired
    g = scale_graph(builtin_graph("dodecahedron"), beta)
    ev = build_green(g, lebesgue_measure(g, normalize=True))
    pts = [random_point(g, rng) for _ in range(6)]
    rep = discriminant_sum(ev, pts)
    assert rep.average_sum >= rep.lower_bound
    true_sup = ev.sup_diag()
    monkeypatch.setattr(ev, "sup_diag", lambda: -true_sup)
    with pytest.raises(NumericError, match="violates lower bound"):
        discriminant_sum(ev, pts)


def test_discriminant_report(rng):
    g = builtin_graph("dodecahedron")
    ev = build_green(g, canonical_measure(g))
    pts = [random_point(g, rng) for _ in range(6)]
    rep = discriminant_sum(ev, pts)
    assert rep.average_sum >= rep.lower_bound - 1e-12
    assert rep.lower_bound == pytest.approx(-rep.sup_diagonal / 5.0)
    assert rep.constant == pytest.approx(2.0 * rep.sup_diagonal)
    with pytest.raises(ValidationError):
        discriminant_sum(ev, pts[:1])
