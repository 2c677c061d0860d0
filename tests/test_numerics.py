"""Grounded solves, nullspaces, minimization, roots, and the piecewise
polynomials of circuit.EdgeTable with their per-edge PiecewisePoly view."""

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

import oracles
from conftest import lollipop, wide_lengths
from metragraph import Measure, build_graph, builtin_graph, build_green, canonical_measure
from metragraph.circuit import EdgeTable, resistance_kernel
from metragraph.numerics import (
    NumericError,
    PiecewisePoly,
    equilibrate_rows,
    golden_min,
    nullspace_basis,
    polyval_rows,
    real_roots_in_intervals,
    shift_polys,
    solve_grounded,
)


def one_edge_table(length, coeffs, kinks=None, graph=None):
    """EdgeTable of one edge e1 of the given length (or of the given graph):
    the row coeffs plus kinks [(offset, jump), ...]."""
    g = graph or build_graph(["a", "b"], [("e1", "a", "b", length)])
    at, jumps = (np.array(v, dtype=float) for v in zip(*kinks)) if kinks else ([], [])
    return EdgeTable(g, np.atleast_2d(coeffs),
                     (np.zeros(len(at), dtype=int), np.asarray(at, dtype=float),
                      np.asarray(jumps)))


def test_solve_grounded_path_network():
    # a - b - c with conductances 2 and 1; current 1 from a to c
    Q = np.array([[2.0, -2.0, 0.0], [-2.0, 3.0, -1.0], [0.0, -1.0, 1.0]])
    v = solve_grounded(Q, np.array([1.0, 0.0, -1.0]), grounded=2)
    assert v[2] == 0.0
    assert v[0] - v[2] == pytest.approx(1.5, abs=1e-12)
    with pytest.raises(NumericError):
        solve_grounded(Q, np.array([1.0, 0.0, 0.0]), grounded=2)


@pytest.mark.parametrize("factor,fails", [(2.0, True), (0.5, False)])
def test_solve_grounded_rejects_a_perturbed_solution(factor, fails, monkeypatch):
    # the residual check: a solve whose v is off at one node so that
    # ||Q v - b|| is factor times tol (||Q|| ||v|| + ||b||) raises when the
    # factor is 2 and passes when it is 1/2
    c = {(0, 1): 2.0, (1, 2): 0.5, (2, 3): 3.0, (3, 0): 1.0, (0, 2): 0.25}
    Q = np.zeros((4, 4))
    for (i, j), w in c.items():
        Q[[i, j], [i, j]] += w
        Q[[i, j], [j, i]] -= w
    b = np.array([1.0, 0.0, 0.0, -1.0])
    v = solve_grounded(Q, b, grounded=2)
    norm = lambda x: np.abs(x).reshape(4, -1).sum(axis=1).max()  # noqa: E731
    bound = 1e-12 * (norm(Q) * norm(v) + norm(b))
    delta = factor * bound / np.abs(Q[:, 0]).max()
    solve = np.linalg.solve
    # node 0 is the first unknown of the grounded system
    monkeypatch.setattr(np.linalg, "solve",
                        lambda A, B: solve(A, B) + delta * (np.arange(len(B)) == 0))
    if fails:
        with pytest.raises(NumericError, match="grounded solve residual"):
            solve_grounded(Q, b, grounded=2)
    else:
        assert solve_grounded(Q, b, grounded=2)[0] == v[0] + delta


def test_nullspace_basis_known_rank():
    M = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 2.0]])
    basis = nullspace_basis(M)
    assert len(basis) == 1
    v = basis[0]
    assert np.linalg.norm(M @ v) < 1e-12
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_nullspace_basis_edge_cases():
    assert len(nullspace_basis(np.zeros((2, 4)))) == 4
    # no rows: every vector of the space is null
    assert np.array_equal(nullspace_basis(np.zeros((0, 3))), np.eye(3))
    wide = np.array([[1.0, 2.0, 3.0]])
    basis = nullspace_basis(wide)
    assert len(basis) == 2
    for v in basis:
        assert abs(wide @ v) < 1e-12


def test_nullspace_bases_keep_no_view_of_the_stack(rng):
    # a cached basis must not keep the whole (s, s) array of right singular
    # vectors alive: each vector may only view an array no larger than its
    # own basis
    stack = np.stack([rng.standard_normal((6, 3)) @ rng.standard_normal((3, 6)),
                      rng.standard_normal((6, 6)), np.zeros((6, 6))])
    stack[1, 0] = stack[1, 1]  # rank 5
    wide = rng.standard_normal((2, 5))
    for bases in ([nullspace_basis(M) for M in stack], [nullspace_basis(wide)]):
        assert [len(b) for b in bases] in ([3, 1, 6], [3])
        for basis in bases:
            for v in basis:
                assert v.base is None or v.base.size <= len(basis) * v.size


def test_golden_min_absolute_tolerance():
    # the bracket shrinks below xatol even though |x| ~ 0.4, which a
    # sqrt(eps)-relative stopping rule would never reach
    x = golden_min(lambda t: (t - 0.39) ** 2, 0.0, 1.0, 1e-12)
    assert abs(x - 0.39) < 5e-12


def test_golden_min_stops_below_float_spacing():
    # near 1.1e4 the float spacing (1.8e-12) exceeds xatol, so the bracket
    # can never get narrower than xatol; the search must still end
    calls = []

    def f(t):
        calls.append(t)
        return abs(t - 11000.03)

    x = golden_min(f, 11000.0, 11000.1, 1e-12)
    assert len(calls) < 200
    assert abs(x - 11000.03) < 1e-10


def test_equilibrate_rows():
    M = np.array([[2.0, 4.0], [0.0, 0.0], [-3.0, 1.5]])
    scaled, factors = equilibrate_rows(M)
    assert np.allclose(np.max(np.abs(scaled), axis=1), [1.0, 0.0, 1.0])
    assert factors[1] == 1.0
    # rows of wildly different scale come out at unit scale
    scaled, factors = equilibrate_rows(np.diag([1e-30, 1e30]))
    np.testing.assert_array_equal(scaled, np.eye(2))
    np.testing.assert_array_equal(factors, [1e-30, 1e30])


def test_real_roots_in_interval():
    # (t - 1)(t - 2) = 2 - 3t + t^2, on (0, 3) and (1, 3); a constant has none
    rows, roots = real_roots_in_intervals(
        [[2.0, -3.0, 1.0], [2.0, -3.0, 1.0], [5.0, 0.0, 0.0]], [0.0, 1.0, 0.0], [3.0, 3.0, 1.0])
    assert list(rows) == [0, 0, 1]
    assert list(roots) == pytest.approx([1.0, 2.0, 2.0])  # open interval drops the endpoint root


def test_real_roots_match_polyroots_per_row(rng):
    # rows of every trimmed degree, real beside complex, with zero leading
    # coefficients: the stacked eigvals agree with one polyroots per row
    c = rng.normal(size=(40, 5)) + 1j * (rng.random((40, 1)) < 0.3) * rng.normal(size=(40, 5))
    c[np.arange(40), rng.integers(1, 5, 40)] = 0.0
    c[::7, 2:] = 0.0
    lo, hi = -np.ones(40), np.ones(40)
    rows, roots = real_roots_in_intervals(c, lo, hi)
    for k in range(40):
        want = oracles._roots_in(c[k], -1.0, 1.0)
        assert list(roots[rows == k]) == pytest.approx(want, rel=1e-13, abs=1e-13)


def test_polyval_rows_is_polyval(rng):
    c = rng.normal(size=(6, 4))
    x = rng.normal(size=6)
    assert list(polyval_rows(c, x)) == [npoly.polyval(t, r) for t, r in zip(x, c)]
    xs = rng.normal(size=(6, 3))
    assert np.array_equal(polyval_rows(c, xs),
                          [npoly.polyval(t, r) for t, r in zip(xs, c)])


def test_piecewise_poly_algebra():
    interval = builtin_graph("interval")
    f = one_edge_table(1.0, [0.0, 1.0], graph=interval)  # t
    g = one_edge_table(1.0, [0.5, -1.0], [(0.5, 2.0)], graph=interval)  # |t - 1/2|
    mu = Measure(f.graph, (), {"e1": [0.0, 1.0]})  # t dt
    assert f.integrate(mu) == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert g.integrate(mu) == pytest.approx(0.125, abs=1e-14)
    assert g.integrals()[0] == pytest.approx(0.25, abs=1e-14)


def test_piecewise_poly_abs_and_extremes():
    f = one_edge_table(1.0, [1.0, -2.0])  # 1 - 2t, crosses at 0.5
    assert f.abs_integrals()[0] == pytest.approx(0.5, abs=1e-14)
    g = one_edge_table(2.0, [0.0, -1.0, 1.0])  # t^2 - t
    vals = g.extrema()
    lo, hi = vals.min(), vals.max()
    assert lo == pytest.approx(-0.25, abs=1e-14)
    assert hi == pytest.approx(2.0, abs=1e-14)


def test_table_pieces_read_the_kinks():
    # two kinks at one offset sum; a kink right of a root splits the |.| parts
    t = one_edge_table(3.0, [1.0, -1.0, 0.0], [(2.0, 0.5), (1.5, 1.0), (2.0, 0.5)])
    pw = t["e1"]
    assert list(pw.breaks) == [0.0, 1.5, 2.0, 3.0]
    xs = np.linspace(0.0, 3.0, 31)
    want = 1.0 - xs + np.maximum(xs - 1.5, 0.0) + np.maximum(xs - 2.0, 0.0)
    assert np.allclose(pw(xs), want, rtol=0.0, atol=1e-14)
    # f = 1 - t on [0, 1.5], -0.5 on [1.5, 2], t - 2.5 on [2, 3]
    assert t.abs_integrals()[0] == pytest.approx(0.5 + 0.125 + 0.25 + 0.125 + 0.125)
    vals = t.extrema()
    assert (vals.min(), vals.max()) == pytest.approx((-0.5, 1.0))
    assert oracles.piecewise_abs_integral(pw.breaks, pw.coeffs) == t.abs_integrals()[0]


def potential_tables(g, factor):
    """The potential of a measure with two interior atoms on one edge, one
    on another, one at a vertex and densities of degree 2 and 0, and the
    Green profile g_mu(., y) of the canonical measure at the first atom;
    factor scales the first atom's mass and the quadratic density (complex
    for complex tables)."""
    e, f, h, last = g.edges[0], g.edges[1], g.edges[2], g.edges[-1]
    x = g.point(e.id, 0.3 * e.length)
    nu = Measure(g, [(x, 0.7 * factor), (g.point(e.id, 0.8 * e.length), -0.4),
                     (g.point(last.id, 0.5 * last.length), 1.1),
                     (g.point_at_vertex(g.vertices[1]), 0.2)],
                 {f.id: factor * np.array([0.3, -0.2, 0.5]) / f.length, h.id: [1.0 / h.length]})
    return nu, [resistance_kernel(g).potential(nu),
                build_green(g, canonical_measure(g)).g_profile(x)]


@pytest.mark.parametrize("graph", ["lollipop", "wide"])
@pytest.mark.parametrize("factor", [1.0, 0.8 + 0.6j])
def test_table_reads_match_the_raw_arrays(graph, factor, rng):
    # values, per-edge integrals and integrals against a measure read through
    # the pieces, against the raw coefficient rows plus kinks and the kink
    # tail forms they replaced, taken exactly: values at random points, at
    # every kink offset and at both ends of every row, to 1e-15 of the
    # largest |value| (times the edge length, or the measure's total
    # variation, for an integral)
    g = lollipop() if graph == "lollipop" else wide_lengths()
    L = g.edge_arrays[1]
    nu, tables = potential_tables(g, factor)
    for table in tables:
        kr, ka, _ = table.kinks
        ends = np.arange(len(L))
        rows = np.concatenate([rng.integers(0, len(L), 200), kr, ends, ends])
        t = np.concatenate([rng.random(200) * L[rows[:200]], ka, np.zeros(len(L)), L])
        want = oracles.table_values(table, rows, t)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(table.values_at(rows, t) - want)) <= 1e-15 * scale
        assert np.all(np.abs(table.integrals() - oracles.table_integrals(table))
                      <= 1e-15 * scale * L)
        assert abs(table.integrate(nu) - oracles.table_integrate(table, nu)) \
            <= 1e-15 * scale * nu.total_variation()


def test_derivative_energy_reads_every_degree():
    # an atom and a quadratic density on one edge give a potential of degree
    # 4 there; the energy against a Gauss rule on every piece of f'
    g = builtin_graph("tetrahedron")
    e = g.edges[0]
    nu = Measure(g, [(g.point(e.id, 0.3 * e.length), 1.0)], {e.id: [0.2, 1.0, -0.7]})
    table = resistance_kernel(g).potential(nu)
    assert table.coeffs.shape[1] == 5
    x, w = np.polynomial.legendre.leggauss(8)
    want = 0.0
    for pw in table.values():
        for c, a, b in zip(pw.coeffs, pw.breaks, pw.breaks[1:]):
            half, mid = 0.5 * (b - a), 0.5 * (a + b)
            want += half * w @ npoly.polyval(mid + half * x, npoly.polyder(c)) ** 2
    assert table.derivative_energy() == pytest.approx(want, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("length", [1e-13, 1e-11, 1e-6, 1.0, 1e3, 1e8])
@pytest.mark.parametrize("factor", [1.0, 1j])
def test_roots_are_found_on_intervals_of_any_length(length, factor):
    # an absolute root tolerance of 1e-12 dropped every root on [0, 1e-13]:
    # the variation of (1 - 2t/L)/L read 0.0 and the minimum of (t - 0.3L)^2
    # read 9e-28; extrema reads the real part, 0 for factor 1j
    density = factor * np.array([1.0 / length, -2.0 / length**2])
    assert one_edge_table(length, density).abs_integrals()[0] == \
        pytest.approx(0.5, rel=1e-12)
    g = build_graph(["a", "b"], [("e1", "a", "b", length)])
    assert Measure(g, (), {"e1": density}).total_variation() == pytest.approx(0.5, rel=1e-12)
    square = factor * np.array([0.09 * length**2, -0.6 * length, 1.0])
    vals = one_edge_table(length, square).extrema()
    lo, hi = vals.min(), vals.max()
    assert lo == pytest.approx(0.0, abs=1e-15 * length**2)
    assert hi == pytest.approx(0.49 * length**2 * factor.real, rel=1e-12)


def test_piecewise_poly_validation():
    with pytest.raises(ValueError):
        PiecewisePoly([0.0], [])
    with pytest.raises(ValueError):
        PiecewisePoly([0.0, 0.0], [[1.0]])
    with pytest.raises(ValueError):
        PiecewisePoly([0.0, 1.0], [[1.0], [2.0]])


def test_shift_polys_matches_composition(rng):
    real = rng.normal(size=(8, 5))
    real[2, 3:] = 0.0  # a ragged row, zero-padded
    for c in (real, real + 1j * rng.normal(size=real.shape)):
        t0 = rng.uniform(-1.0, 1.0, size=len(c))
        for shift in (t0, 0.7):
            got = shift_polys(c, shift)
            assert got.shape == c.shape and got.dtype == c.dtype
            for row, p, t in zip(got, c, np.broadcast_to(shift, len(c))):
                want = npoly.polyval(npoly.Polynomial([t, 1.0]), p).coef  # p(t + t0)
                want = np.pad(want, (0, c.shape[1] - want.size))
                np.testing.assert_allclose(row, want, rtol=0.0, atol=1e-14)
