"""Effective resistance and j-functions against network-solver oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import circle_point, lollipop, random_cubic, random_point, wide_lengths
from metragraph import (
    Measure,
    ValidationError,
    build_graph,
    builtin_graph,
    canonical_measure,
    circuit,
    effective_resistance,
    j_function,
    lebesgue_measure,
    scale_graph,
)
from metragraph.circuit import (
    removed_edge_resistance,
    resistance_kernel,
    resistance_profile,
)
from metragraph.green import tau_constant
from metragraph.numerics import NumericError


# quantized so generated points never sit denormally close to a vertex
offsets = st.integers(0, 1000).map(lambda k: k / 1000.0)


@given(x=offsets, y=offsets)
@settings(max_examples=50, deadline=None)
def test_interval_resistance_is_distance(x, y):
    g = builtin_graph("interval")
    r = effective_resistance(g, g.point("e1", x), g.point("e1", y))
    assert r == pytest.approx(abs(x - y), abs=1e-12)


@given(s=offsets, t=offsets)
@settings(max_examples=50, deadline=None)
def test_circle_resistance_parallel_arcs(s, t):
    g = builtin_graph("circle")
    d = abs(s - t)
    d = min(d, 1.0 - d)
    r = effective_resistance(g, circle_point(g, s), circle_point(g, t))
    assert r == pytest.approx(d * (1.0 - d), abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_banana_resistance(n):
    g = builtin_graph(f"banana:{n}")
    pa = g.point("e1", 0.0)
    pb = g.point("e1", 1.0 / n)
    assert effective_resistance(g, pa, pb) == pytest.approx(n**-2, abs=1e-12)


def test_complete_graph_resistances():
    # adjacent pair in K_n with unit edge resistance: 2/n
    tetra = builtin_graph("tetrahedron")  # edge length 1/6
    r = effective_resistance(tetra, tetra.point("e1", 0.0),
                             tetra.point("e1", tetra.edges[0].length))
    assert r == pytest.approx((1.0 / 6.0) * (2.0 / 4.0), abs=1e-12)
    k33 = builtin_graph("k33")  # edge length 1/9, adjacent pair 5/9
    r = effective_resistance(k33, k33.point_at_vertex("a1"),
                             k33.point_at_vertex("b1"))
    assert r == pytest.approx(5.0 / 81.0, abs=1e-12)


@pytest.mark.parametrize("name", ["banana:3", "petersen", "cube", "k5", "lollipop"])
def test_resistance_matches_network_oracle(name, rng):
    # the lollipop's two-edge tail puts bridges through the vertex form
    g = lollipop() if name == "lollipop" else builtin_graph(name)
    for _ in range(8):
        x, y = random_point(g, rng), random_point(g, rng)
        assert effective_resistance(g, x, y) == pytest.approx(
            oracles.resistance(g, x, y), abs=1e-10
        )


@pytest.mark.parametrize("beta", [1e-6, 1.0, 1e8])
def test_resistance_exact_on_wide_length_spread(beta, rng):
    # edges of length 1e-7 beta and beta in parallel (a cycle of length C)
    # plus a 0.5 beta tail: on the cycle r = d (C - d) / C for the arc d
    # between the points, and a tail offset adds in series.  The exact value
    # is computed in rationals from the float lengths and offsets.
    g = build_graph(["a", "b", "c"], [("e1", "a", "b", 1e-7 * beta),
                                      ("e2", "a", "b", beta),
                                      ("e3", "b", "c", 0.5 * beta)])
    L1, L2 = (Fraction(e.length) for e in g.edges[:2])
    C = L1 + L2

    def place(p):
        """(position on the cycle, distance out along the tail)"""
        t = Fraction(p.offset)
        return {"e1": (t, 0), "e2": (C - t, 0), "e3": (L1, t)}[p.edge]

    def exact(x, y):
        (cx, sx), (cy, sy) = place(x), place(y)
        if x.edge == y.edge == "e3":
            return abs(sx - sy)
        d = abs(cx - cy)
        return d * (C - d) / C + sx + sy

    ell = sum(e.length for e in g.edges)
    for _ in range(200):
        x, y = random_point(g, rng), random_point(g, rng)
        err = abs(effective_resistance(g, x, y) - float(exact(x, y)))
        assert err <= 1e-14 * ell


def test_resistance_degenerate_and_triangle(rng):
    g = builtin_graph("octahedron")
    x = random_point(g, rng)
    assert effective_resistance(g, x, x) == 0.0
    for _ in range(20):
        a, b, c = (random_point(g, rng) for _ in range(3))
        rab = effective_resistance(g, a, b)
        rbc = effective_resistance(g, b, c)
        rac = effective_resistance(g, a, c)
        assert rac <= rab + rbc + 1e-12


@pytest.mark.parametrize("name", ["interval", "circle", "tetrahedron", "k33"])
def test_j_function_matches_oracle(name, rng):
    g = builtin_graph(name)
    for _ in range(6):
        zeta, y, x = (random_point(g, rng) for _ in range(3))
        assert j_function(g, zeta, y, x) == pytest.approx(
            oracles.j_value(g, zeta, y, x), abs=1e-10
        )


@pytest.mark.parametrize("beta", [1e8, 1e10])
def test_j_function_zero_between_points_at_large_scale(beta, rng):
    # x < zeta < y on the interval: no current reaches x, so j = 0 exactly,
    # and the three resistances cancel only to rounding of their size; an
    # absolute -1e-9 floor raised "negative j-function value" here
    g = scale_graph(builtin_graph("interval"), beta)
    for _ in range(300):
        x, zeta, y = (g.point("e1", float(t))
                      for t in np.sort(rng.uniform(0.0, beta, 3)))
        assert 0.0 <= j_function(g, zeta, y, x) <= 1e-12 * beta


def test_j_function_identities(rng):
    g = builtin_graph("petersen")
    for _ in range(10):
        zeta, x, y = (random_point(g, rng) for _ in range(3))
        j = j_function(g, zeta, y, x)
        assert j == pytest.approx(j_function(g, zeta, x, y), abs=1e-11)
        half = 0.5 * (
            effective_resistance(g, x, zeta)
            + effective_resistance(g, y, zeta)
            - effective_resistance(g, x, y)
        )
        assert j == pytest.approx(half, abs=1e-11)
        assert j >= -1e-12
        # grounding: zero at zeta, exactly (r is symmetric to the last bit);
        # the diagonal recovers resistance
        assert j_function(g, zeta, y, zeta) == 0.0
        assert j_function(g, zeta, zeta, x) == 0.0
        assert j_function(g, zeta, x, x) == pytest.approx(
            effective_resistance(g, zeta, x), abs=1e-11
        )


def point_set(g, rng):
    return ([random_point(g, rng) for _ in range(25)]
            + [g.point(e.id, f * e.length) for e in g.edges for f in (0.0, 0.5, 1.0)])


@pytest.mark.parametrize("name", ["lollipop", "wide"])
def test_point_read_matches_the_monomial_form(name, rng):
    # the vertex-weight read against the edge pair's 3 x 3 monomial form it
    # replaced: within 1e-15 of max r, symmetric bit for bit, and the same
    # bits read one point at a time or broadcast over a grid
    g = lollipop() if name == "lollipop" else wide_lengths()
    kernel = resistance_kernel(g)
    pts = point_set(g, rng)
    got = np.array([[kernel.point_eval(p, q) for q in pts] for p in pts])
    want = np.array([[oracles.kernel_eval(kernel, p.edge, p.offset, q.edge, q.offset)
                      for q in pts] for p in pts])
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(want)
    assert got.tobytes() == got.T.tobytes()
    assert isinstance(kernel.point_eval(pts[0], pts[1]), float)
    for e, f in [(g.edges[0], g.edges[0]), (g.edges[0], g.edges[2]), (g.edges[-1], g.edges[1])]:
        s = rng.uniform(0.0, e.length, 7)
        t = np.append(rng.uniform(0.0, f.length, 4), [0.0, f.length])
        grid = kernel.eval(e.id, s[:, None], f.id, t[None, :])
        points = np.array([[kernel.eval(e.id, a, f.id, b) for b in t] for a in s])
        assert grid.shape == points.shape and grid.tobytes() == points.tobytes()
        assert kernel.eval(e.id, s, f.id, t[0]).tobytes() == points[:, 0].tobytes()


@pytest.mark.parametrize("beta", [1e-6, 1e3, 1e8])
def test_point_read_scales_with_length(beta, rng):
    g = wide_lengths()
    h = scale_graph(g, beta)
    pts = point_set(g, rng)
    r = np.array([[effective_resistance(g, p, q) for q in pts] for p in pts])
    scaled = [h.point(p.edge, beta * p.offset) for p in pts]
    r_beta = np.array([[effective_resistance(h, p, q) for q in scaled] for p in scaled])
    assert np.max(np.abs(r_beta / beta - r)) <= 1e-13 * np.max(r)


def test_removed_edge_resistance():
    assert math.isinf(removed_edge_resistance(builtin_graph("interval"), "e1"))
    b2 = builtin_graph("banana:2")
    assert removed_edge_resistance(b2, "e1") == pytest.approx(0.5, abs=1e-12)
    circ = builtin_graph("circle")
    assert removed_edge_resistance(circ, "e1.1") == pytest.approx(0.5, abs=1e-12)
    tetra = builtin_graph("tetrahedron")
    assert removed_edge_resistance(tetra, "e1") == pytest.approx(
        1.0 / 6.0, abs=1e-12
    )


def test_bridges_and_removed_edge_resistance(rng):
    # a 4-cycle with a two-edge tail: the tail edges are bridges
    lengths = rng.uniform(0.05, 1.0, size=6)
    ends = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("d", "s"), ("s", "t")]
    edges = [(f"e{k}", u, v, float(L))
             for k, ((u, v), L) in enumerate(zip(ends, lengths))]
    g = build_graph(["a", "b", "c", "d", "s", "t"], edges)
    mu = canonical_measure(g)
    assert mu.total_mass() == pytest.approx(1.0, abs=1e-12)
    for eid, *_ in edges[4:]:
        assert math.isinf(removed_edge_resistance(g, eid))
        assert eid not in mu.densities
    for eid, u, v, length in edges[:4]:
        rest = build_graph(g.vertices, [f for f in edges if f[0] != eid])
        want = oracles.resistance(
            rest, rest.point_at_vertex(u), rest.point_at_vertex(v)
        )
        assert removed_edge_resistance(g, eid) == pytest.approx(want, rel=1e-12)
        assert mu.densities[eid] == pytest.approx([1.0 / (length + want)],
                                                  rel=1e-12)


def test_short_edge_keeps_canonical_density():
    # R(e) / L(e) = 1e6 on the short edge, so L - r(u, v) is only 1e-6 L,
    # yet far above the bridge threshold
    g = build_graph(["a", "b", "c"], [("s", "a", "b", 1e-6),
                                      ("l", "a", "b", 1.0),
                                      ("t", "b", "c", 0.5)])
    assert removed_edge_resistance(g, "s") == pytest.approx(1.0, rel=1e-8)
    dens = canonical_measure(g).densities
    assert dens["s"] == pytest.approx([1.0 / (1.0 + 1e-6)], rel=1e-8)
    assert "t" not in dens


def test_kernel_whose_graph_is_gone_fails_loudly():
    # the graph's cache owns the kernel and the kernel refers to the graph
    # weakly, so a kernel kept alone loses its graph and says so
    g = build_graph("abc", [("e1", "a", "b", 1.0), ("e2", "b", "c", 0.5),
                            ("e3", "c", "a", 2.0)])
    kernel = resistance_kernel(g)
    assert kernel.graph is g
    del g
    with pytest.raises(ValidationError, match="the kernel's graph no longer exists"):
        kernel.graph


def test_laplacian_assembly_matches_loop(rng):
    # the array assembly sums each resistor's four entries in resistor
    # order, so it equals the plain loop exactly, parallel resistors included
    i = rng.integers(0, 7, 40)
    j = (i + rng.integers(1, 7, 40)) % 7
    length = rng.uniform(1e-3, 2.0, 40)
    Q = np.zeros((7, 7))
    for a, b, c in zip(i, j, 1.0 / length):
        Q[a, a] += c
        Q[b, b] += c
        Q[a, b] -= c
        Q[b, a] -= c
    assert np.array_equal(circuit._laplacian(7, i, j, length), Q)


def test_kernel_agrees_with_direct_solves(rng):
    g = builtin_graph("dodecahedron")
    kern = resistance_kernel(g)
    for _ in range(12):
        x, y = random_point(g, rng), random_point(g, rng)
        assert kern.point_eval(x, y) == pytest.approx(
            oracles.resistance(g, x, y), abs=1e-10
        )


def test_profile_matches_pointwise(rng):
    g = builtin_graph("k5")
    y = random_point(g, rng)
    prof = resistance_profile(g, y)
    for _ in range(10):
        x = random_point(g, rng)
        assert prof.value(x) == pytest.approx(
            oracles.resistance(g, x, y), abs=1e-10
        )


@pytest.mark.parametrize("beta", [1e3, 1e8])
def test_profile_check_holds_on_wide_length_spread(beta):
    # edges of length 1e-7 and 1 in parallel plus a tail: the check's solve,
    # grounded far from the short edge, lost 2e-9 of r and raised "resistance
    # profile mismatch" for some base points.  tau is 1/12 of the cycle
    # plus 1/4 of the tail.
    g = build_graph(["a", "b", "c"], [("e1", "a", "b", 1e-7 * beta),
                                      ("e2", "a", "b", beta),
                                      ("e3", "b", "c", 0.5 * beta)])
    tau = (1e-7 + 1.0) / 12.0 * beta + 0.125 * beta
    for e in g.edges:
        for f in (0.0, 0.1, 0.5, 0.9, 1.0):
            prof = resistance_profile(g, g.point(e.id, f * e.length))
            assert 0.25 * prof.derivative_energy() == pytest.approx(tau, rel=1e-12)


def test_kernel_and_profile_checks_scale_with_length(tetrahedron, monkeypatch):
    # a solver off by a relative 1e-6 must fail both build-time checks at
    # total length 1e-6, where r is about 5e-8: a bound of 1e-9 max(1, |r|)
    # let it through
    g = scale_graph(tetrahedron, 1e-6)
    resistance_kernel(g)
    solved = circuit._solved_resistances
    monkeypatch.setattr(circuit, "_solved_resistances",
                        lambda *args: (1.0 + 1e-6) * solved(*args))
    with pytest.raises(NumericError, match="resistance kernel mismatch"):
        circuit.ResistanceKernel(g)
    with pytest.raises(NumericError, match="resistance profile mismatch"):
        resistance_profile(g, g.point("e1", 0.3 * g.edges[0].length))


def test_profile_energy_gives_tau():
    # tau = (1/4) int (d/dx r(x, y))^2 dx, independent of the base point y
    for name, expect in [("interval", 0.25), ("circle", 1.0 / 12.0)]:
        g = builtin_graph(name)
        y = g.point(g.edges[0].id, 0.3 * g.edges[0].length)
        energy = resistance_profile(g, y).derivative_energy()
        assert 0.25 * energy == pytest.approx(expect, abs=1e-12)
        assert tau_constant(g) == pytest.approx(expect, abs=1e-12)
    g = builtin_graph("tetrahedron")
    e0 = resistance_profile(g, g.point("e1", 0.02)).derivative_energy()
    e1 = resistance_profile(g, g.point("e4", 0.11)).derivative_energy()
    assert 0.25 * e0 == pytest.approx(0.25 * e1, abs=1e-12)
    assert 0.25 * e0 == pytest.approx(tau_constant(g), abs=1e-12)


def test_measure_on_another_graph_is_rejected():
    # the same graph built again, and with its edges listed in reverse: a
    # measure on either has rows that only match the kernel's by chance
    g = build_graph("abc", [
        ("e1", "a", "b", 0.5), ("e2", "b", "c", 0.25), ("e3", "c", "a", 0.25)])
    kernel = resistance_kernel(g)
    table = kernel.potential(lebesgue_measure(g))
    for edges in (list(g.edges), list(g.edges)[::-1]):
        other = build_graph(g.vertices, edges)
        nu = Measure(other, [(other.point("e1", 0.2), 1.0)], {"e2": [1.0, 2.0]})
        with pytest.raises(ValidationError, match="different graph"):
            kernel.potential(nu)
        with pytest.raises(ValidationError, match="different graph"):
            table.integrate(nu)


CHECK_GRAPHS = {"tetrahedron": lambda: builtin_graph("tetrahedron"),
                "banana": lambda: builtin_graph("banana:3"), "lollipop": lollipop,
                "cubic30": lambda: random_cubic(3, 30), "cubic90": lambda: random_cubic(3, 90)}


def check_cases(g):
    """(y, points) pairs for the resistance check's network."""
    e, f = g.edges[0], g.edges[-1]
    y = g.point(e.id, 0.4 * e.length)
    return {
        "point at a vertex": (y, [g.point(f.id, 0.0), g.point(f.id, f.length),
                                  g.point(e.id, 0.7 * e.length)]),
        "two points on one edge": (y, [g.point(f.id, 0.6 * f.length),
                                       g.point(f.id, 0.2 * f.length),
                                       g.point(f.id, 0.6 * f.length)]),
        "y on a checked edge": (y, [g.point(e.id, 0.9 * e.length),
                                    g.point(e.id, 0.1 * e.length), y]),
        "y at a vertex": (g.point_at_vertex(e.v), [g.point(f.id, 0.5 * f.length)]),
        "every edge": (y, [g.point(d.id, 0.3183098861 * d.length) for d in g.edges]),
        # the kernel's own check: y on the first edge, a point on the first,
        # middle and last edges
        "kernel check": (g.point(e.id, 0.7182818284 * e.length),
                         [g.point(d.id, 0.3183098861 * d.length) for d in
                          (e, g.edges[len(g.edges) // 2], f)]),
    }


@pytest.mark.parametrize("graph", CHECK_GRAPHS)
@pytest.mark.parametrize("case", list(check_cases(builtin_graph("tetrahedron"))))
def test_check_network_matches_chain_walk(graph, case, monkeypatch):
    # the network built from the kernel's edge arrays against the per-edge
    # chain walk it replaced: the same Laplacian, bit for bit, and the same
    # right-hand sides and ground
    g = CHECK_GRAPHS[graph]()
    y, points = check_cases(g)[case]
    kernel = resistance_kernel(g)
    seen, solve = [], circuit.solve_grounded
    monkeypatch.setattr(circuit, "solve_grounded",
                        lambda Q, B, ground: seen.append((Q, B, ground)) or solve(Q, B, ground))
    direct = circuit._solved_resistances(kernel, y, points)
    (Q, B, ground), = seen
    want_Q, want_B = oracles.check_network(g, y, points)
    assert Q.shape == want_Q.shape and Q.tobytes() == want_Q.tobytes()
    assert B.shape == want_B.shape and B.tobytes() == want_B.tobytes()
    assert ground == np.argmax(np.diag(want_Q))
    assert direct == pytest.approx([oracles.resistance(g, p, y) for p in points], abs=1e-12)


def test_checks_catch_a_corrupted_kernel_or_profile():
    # one symmetric pair of kernel entries, or one profile coefficient, off by
    # twice the 1e-9 ell bound at a checked pair must raise, and off by half
    # of it must not
    g = lollipop()
    edges, ell = g.edges, sum(e.length for e in g.edges)
    y = g.point(edges[0].id, 0.7182818284 * edges[0].length)
    checked = [g.point(e.id, 0.3183098861 * e.length) for e in (edges[0], edges[2], edges[-1])]
    clean = resistance_kernel(g)

    def corrupted(delta):
        kernel = circuit.ResistanceKernel(g)
        i, j = kernel._ends[-1, 0], kernel._ends[0, 1]
        kernel._R[i, j] += delta
        kernel._R[j, i] += delta
        return kernel

    probe = corrupted(1e-3 * ell)
    weight = max(abs(probe.point_eval(p, y) - clean.point_eval(p, y)) for p in checked) / (1e-3 * ell)
    assert weight > 0.1
    corrupted(0.5e-9 * ell / weight)._validate()
    with pytest.raises(NumericError, match="resistance kernel mismatch"):
        corrupted(2e-9 * ell / weight)._validate()
    for delta, fails in ((0.5e-9 * ell, False), (2e-9 * ell, True)):
        profile = resistance_profile(g, y)
        coeffs = profile.polys.coeffs.copy()
        coeffs[-1, 0] += delta
        profile.polys = circuit.EdgeTable(g, coeffs, profile.polys.kinks)
        if fails:
            with pytest.raises(NumericError, match="resistance profile mismatch on edge s2"):
                profile._validate()
        else:
            profile._validate()
