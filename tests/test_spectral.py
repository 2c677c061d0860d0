"""Eigenvalue solver tests.

Closed-form spectra (interval, circle, parallel edges), eigenpair invariants,
and a second numerical route through the discretized integral operator: the
solver chases roots of det M(gamma), the oracle diagonalizes the Green matrix
of a fine resistor network, and the two must agree.
"""

import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly
from scipy.optimize import brentq

import oracles
from metragraph import (
    CPAFunction,
    Measure,
    NumericError,
    SpectralProblem,
    ValidationError,
    assemble_characteristic_matrix,
    build_graph,
    build_green,
    builtin_graph,
    canonical_measure,
    characteristic_det,
    dirac,
    eigenfunctions_at,
    find_eigenvalues,
    l2_inner,
    lebesgue_measure,
    mercer_partial_sum,
    rayleigh_quotient,
    scale_graph,
    total_length,
)
from metragraph.cli import TABLE_GAMMA_MAX
from metragraph import spectral
from metragraph.spectral import (
    EdgeBasisSolution,
    EigenvalueCount,
    _exp_moments,
    _overlap,
    _particular_table,
    eigen_residuals,
)

PI2 = math.pi * math.pi


def assert_spectrum(pairs, expected, rel=1e-9):
    """expected is a list of (eigenvalue, multiplicity), ascending."""
    assert [p.multiplicity for p in pairs] == [m for _, m in expected]
    np.testing.assert_allclose(
        [p.eigenvalue for p in pairs], [lam for lam, _ in expected], rtol=rel
    )


def flat_spectrum(pairs):
    out = []
    for p in pairs:
        out.extend([p.eigenvalue] * p.multiplicity)
    return out


# ---------------------------------------------------------------- moments

@settings(max_examples=60, deadline=None)
@given(
    coeffs=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4),
    omega=st.one_of(st.floats(1e-6, 0.5), st.floats(0.5, 40.0)),
    length=st.floats(0.2, 1.5),
)
def test_trig_poly_moments_match_quadrature(coeffs, omega, length):
    # covers both evaluation branches: the series used when omega*length is
    # small and the closed form used elsewhere
    z = complex(np.asarray(coeffs) @ _exp_moments(omega, length, len(coeffs) - 1)[0])
    cmom, smom = z.real, z.imag
    want_c = want_s = 0.0
    for k, c in enumerate(coeffs):
        mk = oracles.trig_moment(k, omega, length)
        want_c += c * mk[0]
        want_s += c * mk[1]
    assert cmom == pytest.approx(want_c, rel=1e-8, abs=2e-8)
    assert smom == pytest.approx(want_s, rel=1e-8, abs=2e-8)


@pytest.mark.parametrize("omega", [0.0, 1e-6, 0.3, 2.5, 11.0, 40.0])
def test_batched_moments_mix_both_branches(omega):
    # one call whose rows put omega*L below and above k + 1, so the series
    # and the closed form meet in one batch; each row agrees with quadrature,
    # with the one-row loop of oracles and with a call on that row alone
    lengths = np.array([0.01, 0.07, 0.2, 0.45, 0.9, 1.3, 2.0])
    count = 4
    batch = _exp_moments(omega, lengths, count)
    x = omega * lengths
    if omega >= 2.5:
        assert np.any(x < 1.0) and np.any(x >= count + 1.0)
    for row, length in zip(batch, lengths):
        np.testing.assert_allclose(row, _exp_moments(omega, length, count)[0],
                                   rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(row, oracles.exp_moments_row(omega, length, count),
                                   rtol=1e-15, atol=0.0)
        want = [complex(*oracles.trig_moment(k, omega, length)) for k in range(count + 1)]
        np.testing.assert_allclose(row, want, rtol=1e-9,
                                   atol=1e-12 * max(1.0, length ** (count + 1)))


def test_batched_moments_take_one_frequency_per_row():
    omegas = np.array([0.0, 0.5, 3.0, 9.0, 25.0, 40.0])
    lengths = np.array([1.2, 0.3, 0.8, 0.05, 1.0, 0.6])
    batch = _exp_moments(omegas, lengths, 3)
    for row, omega, length in zip(batch, omegas, lengths):
        np.testing.assert_allclose(row, _exp_moments(omega, length, 3)[0],
                                   rtol=1e-15, atol=0.0)
    with pytest.raises(ValueError):
        _exp_moments(-omegas, lengths, 3)


# x = omega*L from near 0 to count + 2.5, on and just below each crossover
# x = k + 1 and halfway between, so every k is taken by both branches
MOMENT_X = [1e-6, 1e-3, 0.1] + [m + d for m in range(1, 12) for d in (-0.02, 0.0, 0.5)]


@functools.cache
def unit_moments_by_quadrature(x, count):
    """integral of u^k exp(i x u) over [0, 1], k = 0..count, by mpmath quadrature."""
    with mpmath.workdps(20):
        return [complex(mpmath.quad(lambda u: u**k * mpmath.expj(x * u), [0, 1]))
                for k in range(count + 1)]


@pytest.mark.parametrize("length", [0.05, 0.7, 2.0])
def test_moments_match_quadrature_across_the_crossover(length):
    # I_k = L^(k+1) times the unit moment at x; omega*L rounds x by an ulp or
    # two, which moves I_k by far less than the bound, a fraction of the
    # scale L^(k+1)/(k+1); the worst error is 3.2e-13, at x = 9.5 and k = 9
    count = 9
    x = np.array(MOMENT_X)
    got = _exp_moments(x / length, length, count)
    k = np.arange(count + 1)
    want = length ** (k + 1.0) * np.array([unit_moments_by_quadrature(v, count) for v in x])
    assert np.max(np.abs(got - want) * (k + 1.0) / length ** (k + 1.0)) < 1e-12


@pytest.mark.parametrize("size, count", [(1, 0), (7, 4), (64, 2), (600, 9)])
def test_moments_of_a_row_do_not_depend_on_its_batch(size, count):
    # a stacked count or secant step batches the rows of many gammas, and a
    # scan's results must not depend on which gammas share a batch
    rng = np.random.default_rng(size)
    lengths = rng.uniform(0.01, 2.0, size)
    omegas = rng.uniform(0.0, count + 3.0, size) / lengths
    omegas[::5] = 0.0
    batch = _exp_moments(omegas, lengths, count)
    for row, omega, length in zip(batch, omegas, lengths):
        np.testing.assert_array_equal(row, _exp_moments(omega, length, count)[0])


def particular_solution(coeffs, gamma):
    """h with h'' + gamma^2 h = gamma^2 g, read from the one-row
    _particular_table at s = 1 / gamma^2 through the last nonzero
    coefficient of g (all of g when g is zero)."""
    g = np.atleast_1d(np.asarray(coeffs, dtype=float))
    table = _particular_table(g[None])[0]
    h = table @ (1.0 / (gamma * gamma)) ** np.arange(table.shape[1])
    return h[:max(np.flatnonzero(g), default=g.size - 1) + 1]


def test_particular_solution_examples():
    g = 3.0
    np.testing.assert_allclose(particular_solution([2.5], g), [2.5])
    np.testing.assert_allclose(particular_solution([0.0, 1.0], g), [0.0, 1.0])
    np.testing.assert_allclose(
        particular_solution([0.0, 0.0, 1.0], g), [-2.0 / 9.0, 0.0, 1.0]
    )


@settings(max_examples=50, deadline=None)
@given(
    coeffs=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=6),
    gamma=st.floats(0.3, 25.0),
)
def test_particular_solution_solves_ode(coeffs, gamma):
    h = particular_solution(coeffs, gamma)
    lhs = npoly.polyadd(np.atleast_1d(npoly.polyder(h, 2)), gamma * gamma * h)
    rhs = gamma * gamma * np.atleast_1d(np.asarray(coeffs, dtype=float))
    n = max(len(lhs), len(rhs))
    lhs = np.pad(lhs, (0, n - len(lhs)))
    rhs = np.pad(rhs, (0, n - len(rhs)))
    scale = gamma * gamma * (1.0 + float(np.max(np.abs(h))))
    np.testing.assert_allclose(lhs, rhs, atol=1e-9 * scale)


def test_particular_solution_lengths_match_table_rows(tetrahedron):
    # zero, constant, trailing-zero and cubic densities keep their lengths:
    # through the last nonzero coefficient, and all of a zero density
    gamma = 2.7
    densities = {"e2": [2.5], "e3": [1.0, -2.0, 0.0, 0.0], "e4": [0.5, -1.0, 2.0, 3.0]}
    for coeffs, size in (([0.0], 1), ([0.0, 0.0, 0.0], 3), ([2.5], 1),
                         (densities["e3"], 2), (densities["e4"], 4)):
        assert particular_solution(coeffs, gamma).size == size
    raw = Measure(tetrahedron, (), densities)
    mu = raw * (1.0 / raw.total_mass())
    problem = SpectralProblem(tetrahedron, mu)
    rows = problem.particulars(gamma)
    f = problem.solution(gamma, np.ones(problem.size))
    for k, e in enumerate(tetrahedron.edges):  # e1, e5 and e6 carry no density
        want = particular_solution(mu.density(e.id), gamma)
        assert f.particular[e.id].size == want.size
        np.testing.assert_allclose(rows[k, :want.size], want, rtol=1e-15, atol=0.0)
        np.testing.assert_array_equal(f.particular[e.id], rows[k, :want.size])
        assert not rows[k, want.size:].any()


# ------------------------------------------------- characteristic matrix

def test_matrix_shape_and_row_tags(interval, tetrahedron):
    m = assemble_characteristic_matrix(interval, lebesgue_measure(interval), 1.0)
    assert m.matrix.shape == (3, 3)
    assert m.row_tags[-1] == "integral"
    assert sum(t.startswith("derivative@") for t in m.row_tags) == 2

    m = assemble_characteristic_matrix(
        tetrahedron, lebesgue_measure(tetrahedron), 2.0
    )
    # 2m+1 with m = 6; continuity rows number sum(v(p) - 1) = 12 - 4 = 8
    assert m.matrix.shape == (13, 13)
    assert sum(t.startswith("continuity@") for t in m.row_tags) == 8
    assert sum(t.startswith("derivative@") for t in m.row_tags) == 4

    circle = builtin_graph("circle")
    m = assemble_characteristic_matrix(circle, lebesgue_measure(circle), 1.0)
    assert m.matrix.shape == (5, 5)


def test_matrix_rejects_nonpositive_gamma(interval):
    with pytest.raises(ValidationError):
        assemble_characteristic_matrix(interval, lebesgue_measure(interval), -1.0)


REFERENCE_GAMMAS = np.geomspace(0.05, 60.0, 20)


def assert_matches_reference(problem):
    """Compiled M(gamma) against the entry-by-entry oracle, row-relative."""
    for g in REFERENCE_GAMMAS:
        got = problem._assemble(g)
        want = oracles.secular_matrix(problem, g)
        scale = np.max(np.abs(want), axis=1, keepdims=True)
        assert np.max(np.abs(got - want) / scale) <= 1e-13, g


@pytest.mark.parametrize("name", [
    "interval", "circle", "banana:3", "k5", "k33", "petersen", "tetrahedron",
    "cube", "octahedron", "dodecahedron", "icosahedron",
])
def test_compiled_matrix_matches_reference(name):
    graph = builtin_graph(name)
    assert_matches_reference(SpectralProblem(graph, lebesgue_measure(graph)))
    assert_matches_reference(SpectralProblem(graph, canonical_measure(graph)))


def test_compiled_matrix_matches_reference_atoms_and_polynomials(tetrahedron):
    e = tetrahedron.edges
    densities = {e[1].id: [0.5, 1.0], e[2].id: [1.0, -2.0, 3.0], e[3].id: [0.7]}
    interior = (tetrahedron.point(e[0].id, 0.3 * e[0].length), 0.4)
    rest = Measure(tetrahedron, [interior], densities).total_mass()
    corner = (tetrahedron.point_at_vertex(tetrahedron.vertices[0]), 1.0 - rest)
    problem = SpectralProblem(tetrahedron,
                              Measure(tetrahedron, [interior, corner], densities))
    assert problem.size == 15  # the interior atom split one edge
    assert_matches_reference(problem)


def assert_plan_matches_loop(problem):
    """The array-built scatter plan entry for entry, order included."""
    for got, want in zip((problem._flat, problem._feat, problem._coef),
                         oracles.compiled_plan(problem)):
        assert np.array_equal(got, want)


BUILTIN_NAMES = ["interval", "circle", "banana:3", "k5", "k33", "petersen", "tetrahedron",
                 "cube", "octahedron", "dodecahedron", "icosahedron"]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_compiled_plan_matches_loop(name):
    graph = builtin_graph(name)
    assert_plan_matches_loop(SpectralProblem(graph, lebesgue_measure(graph)))
    assert_plan_matches_loop(SpectralProblem(graph, canonical_measure(graph)))


def test_compiled_plan_matches_loop_atoms_polynomials_and_signs(tetrahedron):
    # an interior atom (a subdivision) with polynomial densities, corner
    # atoms, an atom of mass zero and a signed measure with a negative atom
    e = tetrahedron.edges
    densities = {e[1].id: [0.5, 1.0], e[2].id: [1.0, -2.0, 3.0], e[3].id: [0.7]}
    interior = (tetrahedron.point(e[0].id, 0.3 * e[0].length), 0.4)
    corner = tetrahedron.point_at_vertex(tetrahedron.vertices[2])
    rest = Measure(tetrahedron, [interior], densities).total_mass()
    for atoms in ([interior, (corner, 1.0 - rest)],
                  [interior, (tetrahedron.point_at_vertex("a"), 0.0), (corner, 1.0 - rest)],
                  [(corner, -0.5), interior, (tetrahedron.point_at_vertex("b"), 1.5 - rest)]):
        problem = SpectralProblem(tetrahedron, Measure(tetrahedron, atoms, densities))
        assert problem.size == 15
        assert_plan_matches_loop(problem)
    for name in ("cube", "petersen"):
        graph = builtin_graph(name)
        assert_plan_matches_loop(SpectralProblem(graph, poly_shaped_measure(graph)))


def test_derivative_matches_finite_differences(tetrahedron):
    # dM/dgamma against a Richardson-extrapolated central difference, under
    # dx, the canonical measure and a measure with an atom and polynomials
    e = tetrahedron.edges
    densities = {e[1].id: [0.5, 1.0], e[2].id: [1.0, -2.0, 3.0], e[3].id: [0.7]}
    interior = (tetrahedron.point(e[0].id, 0.3 * e[0].length), 0.4)
    rest = Measure(tetrahedron, [interior], densities).total_mass()
    corner = (tetrahedron.point_at_vertex(tetrahedron.vertices[0]), 1.0 - rest)
    for mu in (lebesgue_measure(tetrahedron), canonical_measure(tetrahedron),
               Measure(tetrahedron, [interior, corner], densities)):
        problem = SpectralProblem(tetrahedron, mu)
        for g in REFERENCE_GAMMAS:
            M, dM = problem._assemble(g, derivative=True)
            assert np.array_equal(M, problem._assemble(g))

            def central(h):
                return (problem._assemble(g + h) - problem._assemble(g - h)) / (2 * h)

            h = 1e-3 * g
            want = (4.0 * central(0.5 * h) - central(h)) / 3.0
            scale = np.max(np.abs(M), axis=1, keepdims=True) \
                + np.max(np.abs(dM), axis=1, keepdims=True)
            assert np.max(np.abs(dM - want) / scale) <= 1e-8, g


def test_det_vanishes_at_known_roots(interval, circle):
    dx = lebesgue_measure(interval)
    assert abs(characteristic_det(interval, dx, math.pi)) < 1e-9
    assert abs(characteristic_det(interval, dx, 2.5)) > 1e-3

    delta0 = dirac(interval, interval.point_at_vertex("a"))
    assert abs(characteristic_det(interval, delta0, math.pi / 2.0)) < 1e-9

    assert abs(characteristic_det(circle, lebesgue_measure(circle), 2 * math.pi)) < 1e-9


# ------------------------------------------------------- known spectra

def test_interval_lebesgue_spectrum(interval):
    pairs = find_eigenvalues(interval, lebesgue_measure(interval), 5 * math.pi + 0.4)
    assert_spectrum(pairs, [(n * n * PI2, 1) for n in range(1, 6)], rel=1e-10)


def test_interval_endpoint_atom_spectrum(interval):
    delta0 = dirac(interval, interval.point_at_vertex("a"))
    pairs = find_eigenvalues(interval, delta0, 3.5 * math.pi + 0.4)
    expected = [(n * n * PI2 / 4.0, 1) for n in (1, 3, 5, 7)]
    assert_spectrum(pairs, expected, rel=1e-10)


def test_interval_two_atom_spectrum(interval):
    # both endpoints weighted 1/2: every eigenvalue doubles up
    pa = interval.point_at_vertex("a")
    pb = interval.point_at_vertex("b")
    mu = Measure(interval, [(pa, 0.5), (pb, 0.5)])
    pairs = find_eigenvalues(interval, mu, 3 * math.pi + 0.4)
    assert_spectrum(pairs, [(PI2, 2), (9 * PI2, 2)], rel=1e-10)


def test_circle_spectrum(circle):
    pairs = find_eigenvalues(circle, lebesgue_measure(circle), 6 * math.pi + 0.4)
    assert_spectrum(pairs, [(4 * n * n * PI2, 2) for n in (1, 2, 3)], rel=1e-10)


def test_parallel_edge_triple_multiplicity():
    # three parallel edges of length 1/3: lambda = (3 k pi)^2 with one cosine
    # mode and two sine-difference modes each
    g = builtin_graph("banana:3")
    pairs = find_eigenvalues(g, lebesgue_measure(g), 6 * math.pi + 0.4)
    assert_spectrum(pairs, [(9 * PI2, 3), (36 * PI2, 3)], rel=1e-9)


def test_two_atoms_minus_lebesgue_spectrum(interval):
    """Reference measure delta_a + delta_b - dx (total mass 1)."""
    pa = interval.point_at_vertex("a")
    pb = interval.point_at_vertex("b")
    mu = Measure(interval, [(pa, 1.0), (pb, 1.0)], {"e1": [-1.0]})
    pairs = find_eigenvalues(interval, mu, 9.2)
    assert_spectrum(
        pairs, [(2.854280792, 1), (PI2, 1), (82.77313456, 1)], rel=1e-6
    )

    # the same roots solve 2 g^3 (1 + cos g) - 3 g^2 sin g = 0
    def f(t):
        return 2 * t**3 * (1 + math.cos(t)) - 3 * t * t * math.sin(t)

    grid = np.linspace(0.5, 9.2, 400)
    vals = [f(t) for t in grid]
    roots = [
        brentq(f, grid[i], grid[i + 1])
        for i in range(len(grid) - 1)
        if vals[i] * vals[i + 1] < 0
    ]
    assert len(roots) == len(pairs)
    for pair, root in zip(pairs, roots):
        assert math.sqrt(pair.eigenvalue) == pytest.approx(root, abs=1e-9)


@pytest.mark.parametrize("name", [
    "interval", "circle", "banana:3", "k33", "k5", "petersen", "tetrahedron",
    "cube", "octahedron", "dodecahedron", "icosahedron",
])
def test_equilateral_spectrum_matches_von_below(name):
    # roots land within a few ulps (measured <= 1.7e-15); without the final
    # secant step of the refinement they drift up to 4e-13
    graph = builtin_graph(name)
    pairs = find_eigenvalues(graph, lebesgue_measure(graph, normalize=True), 60.0)
    assert_spectrum(pairs, oracles.von_below_spectrum(graph, 60.0), rel=1e-13)


def poly_shaped_measure(graph, kind="poly"):
    """An atom of 1/4 at 0.3 L on the first edge, densities 1 + t/L and
    1 + (t/L)^2 on alternate edges ('poly') or constant ones ('const'),
    total mass 1."""
    edges = graph.edges
    shapes = (np.array([1.0, 1.0]), np.array([1.0, 0.0, 1.0])) if kind == "poly" \
        else (np.array([1.0]),) * 2
    dens, mass = {}, 0.0
    for k, e in enumerate(edges):
        shape = shapes[k % 2]
        powers = np.arange(shape.size)
        dens[e.id] = shape / e.length ** powers
        mass += e.length * np.sum(shape / (powers + 1))
    atom = (graph.point(edges[0].id, 0.3 * edges[0].length), 0.25)
    return Measure(graph, [atom], {eid: c * 0.75 / mass for eid, c in dens.items()})


@pytest.mark.parametrize("name", ["tetrahedron", "cube", "petersen"])
def test_no_spurious_roots_near_the_floor(name):
    # near the floor det M ~ gamma^p; the former singular-value dip search
    # accepted roots there (lambda ~ 1e-7, multiplicity 5 on the tetrahedron)
    graph = builtin_graph(name)
    mu = poly_shaped_measure(graph)
    pairs = find_eigenvalues(graph, mu, 40.0)
    assert pairs and min(p.eigenvalue for p in pairs) >= 1e-2
    for p in pairs:
        assert eigenfunctions_at(graph, mu, math.sqrt(p.eigenvalue)).multiplicity \
            == p.multiplicity


TABLE_GRAPHS = ("k33", "k5", "petersen", "tetrahedron", "cube", "octahedron",
                "dodecahedron", "icosahedron")


def table_measures(graph):
    return lebesgue_measure(graph, normalize=True), canonical_measure(graph)


def test_refinement_evaluation_count(monkeypatch):
    # gammas evaluated, and the stacked calls that evaluate them, over the 16
    # scans behind reproduce-table: derivative assemblies (the refinement's
    # only M(gamma) evaluations) and eigenvalue counts
    ratio_batches, count_batches = [], []
    assemble, count = SpectralProblem._assemble, EigenvalueCount.__call__

    def counting(self, gamma, derivative=False):
        if derivative:
            ratio_batches.append(np.size(gamma))
        return assemble(self, gamma, derivative)

    def counted(self, gamma):
        count_batches.append(np.size(gamma))
        return count(self, gamma)

    monkeypatch.setattr(SpectralProblem, "_assemble", counting)
    monkeypatch.setattr(EigenvalueCount, "__call__", counted)
    for name in TABLE_GRAPHS:
        graph = builtin_graph(name)
        for mu in table_measures(graph):
            find_eigenvalues(graph, mu, TABLE_GAMMA_MAX)
    assert sum(ratio_batches) <= 500
    assert sum(count_batches) <= 1000
    assert len(ratio_batches) <= 130
    assert len(count_batches) <= 160


def test_count_is_built_once_per_problem(monkeypatch):
    init, built = EigenvalueCount.__init__, []

    def counted_init(self, problem):
        built.append(problem)
        init(self, problem)

    monkeypatch.setattr(EigenvalueCount, "__init__", counted_init)
    graph = builtin_graph("tetrahedron")
    mu = lebesgue_measure(graph, normalize=True)
    first = find_eigenvalues(graph, mu, 40.0)
    assert find_eigenvalues(graph, mu, 40.0) == first
    assert len(built) == 1


# a random cubic graph (m = 18, lengths in [0.5, 2]) whose simple roots at
# gamma ell = 38.41873 and 38.82225 share one cell of a pi / (8 ell) grid
PAIRED_ROOTS_EDGES = [
    ("e0", "v6", "v3", 1.7133419221798776), ("e1", "v3", "v4", 1.177085619012647),
    ("e2", "v5", "v7", 1.9837178208744444), ("e3", "v1", "v4", 1.9641489494148225),
    ("e4", "v4", "v6", 1.214079975848891), ("e5", "v11", "v0", 1.5095747791407343),
    ("e6", "v11", "v2", 0.7286418201559219), ("e7", "v3", "v7", 1.56311017283733),
    ("e8", "v2", "v9", 0.6617979618427914), ("e9", "v1", "v9", 1.83612091247158),
    ("e10", "v8", "v10", 1.3092826043233936), ("e11", "v8", "v0", 1.019169400458781),
    ("e12", "v1", "v10", 1.611463809857168), ("e13", "v8", "v7", 0.6321319805399647),
    ("e14", "v5", "v10", 0.9470139761639096), ("e15", "v0", "v5", 1.3066246717339904),
    ("e16", "v11", "v9", 1.4250302398779493), ("e17", "v6", "v2", 1.8029797099804308),
]


def test_close_pair_of_simple_roots_is_kept():
    graph = build_graph([f"v{i}" for i in range(12)], PAIRED_ROOTS_EDGES)
    ell = total_length(graph)
    pairs = find_eigenvalues(graph, poly_shaped_measure(graph, "const"), 40.0 / ell)
    assert [round(math.sqrt(p.eigenvalue) * ell, 5) for p in pairs] == [
        11.99304, 14.3086, 18.38294, 25.51327, 27.75999, 30.22361, 31.99037,
        34.3104, 38.41873, 38.82225]
    assert all(p.multiplicity == 1 for p in pairs)


# ------------------------------------------ the level-by-level scan

def assert_same_as_depth_first(graph, mu, gamma_max):
    """Eigenvalues bit for bit and multiplicities of the depth-first walk."""
    got = [(p.eigenvalue, p.multiplicity) for p in find_eigenvalues(graph, mu, gamma_max)]
    want = oracles.depth_first_eigenvalues(graph, mu, gamma_max)
    assert [(lam.hex(), k) for lam, k in got] == [(lam.hex(), k) for lam, k in want]
    return got


@pytest.mark.parametrize("kind", [0, 1], ids=["dx", "canonical"])
@pytest.mark.parametrize("name", TABLE_GRAPHS)
def test_table_scans_match_depth_first(name, kind):
    graph = builtin_graph(name)
    assert_same_as_depth_first(graph, table_measures(graph)[kind], TABLE_GAMMA_MAX)


def test_close_pair_and_five_fold_root_match_depth_first():
    paired = build_graph([f"v{i}" for i in range(12)], PAIRED_ROOTS_EDGES)
    got = assert_same_as_depth_first(paired, poly_shaped_measure(paired, "const"),
                                     40.0 / total_length(paired))
    assert len(got) == 10
    petersen = builtin_graph("petersen")
    got = assert_same_as_depth_first(petersen, lebesgue_measure(petersen, normalize=True),
                                     40.0 / total_length(petersen))
    assert max(k for _, k in got) == 5


@pytest.mark.parametrize("name", ["tetrahedron", "cube"])
def test_poly_measure_with_interior_atom_matches_depth_first(name):
    graph = builtin_graph(name)
    mu = poly_shaped_measure(graph)  # its atom sits at 0.3 of the first edge
    assert SpectralProblem(graph, mu).graph is not graph
    assert_same_as_depth_first(graph, mu, 40.0 / total_length(graph))


def test_levels_wider_than_a_batch_match_depth_first(interval, monkeypatch):
    # the roots n pi below 700: the widest levels hold over 100 brackets
    sizes, count = [], EigenvalueCount._counts
    monkeypatch.setattr(EigenvalueCount, "_counts",
                        lambda self, gs: sizes.append(len(gs)) or count(self, gs))
    got = assert_same_as_depth_first(interval, lebesgue_measure(interval), 700.0)
    assert len(got) == 222
    assert max(sizes) == spectral.MAX_BATCH and sizes.count(spectral.MAX_BATCH) > 1


def test_stacks_of_large_matrices_hold_fewer_gammas(monkeypatch):
    # with room for three 61 x 61 matrices per stack, the dodecahedron's
    # secant steps take at most three gammas each, to the same roots
    graph = builtin_graph("dodecahedron")
    mu = canonical_measure(graph)
    monkeypatch.setattr(spectral, "MAX_STACK_ENTRIES", 3 * 61 * 61 + 60)
    sizes, assemble = [], SpectralProblem._assemble

    def counting(self, gamma, derivative=False):
        sizes.append(np.size(gamma) if derivative else 0)
        return assemble(self, gamma, derivative)

    monkeypatch.setattr(SpectralProblem, "_assemble", counting)
    assert SpectralProblem(graph, mu).size == 61
    assert_same_as_depth_first(graph, mu, TABLE_GAMMA_MAX)
    assert max(sizes) == 3


@pytest.mark.parametrize("case", ["table", "paired", "poly"])
def test_stacked_values_equal_scalar_ones(case):
    # count and secant ratio at 200 random gammas: one stacked call each
    # against 200 calls of one gamma, bit for bit
    if case == "table":
        pairs = [(g, mu) for g in map(builtin_graph, TABLE_GRAPHS) for mu in table_measures(g)]
    elif case == "paired":
        g = build_graph([f"v{i}" for i in range(12)], PAIRED_ROOTS_EDGES)
        pairs = [(g, poly_shaped_measure(g, "const"))]
    else:
        pairs = [(g, poly_shaped_measure(g)) for g in map(builtin_graph, ("tetrahedron", "cube"))]
    rng = np.random.default_rng(11)
    for graph, mu in pairs:
        problem = SpectralProblem(graph, mu)
        gammas = rng.uniform(1e-3, 45.0, 200) / total_length(graph)
        counts, ratios = problem.count(gammas), spectral._newton_ratio(problem, gammas)
        assert counts == [problem.count(float(g)) for g in gammas]
        assert ratios == [spectral._newton_ratio(problem, float(g)) for g in gammas]
        assert all(type(c) is int for c in counts) and all(type(u) is float for u in ratios)


def test_singular_member_of_a_stack():
    # an exactly singular matrix fails the stacked solve; its trace alone is
    # inf, so its secant ratio is 0, as at a root
    A = np.stack([2.0 * np.eye(3), np.diag([1.0, 0.0, 1.0]), np.eye(3)])
    B = np.stack([np.eye(3), np.eye(3), np.diag([1.0, 2.0, 3.0])])
    assert spectral._solve_traces(A, B).tolist() == [1.5, math.inf, 6.0]


@pytest.mark.parametrize("kind", ["const", "poly"])
@pytest.mark.parametrize("name", ["tetrahedron", "cube", "petersen"])
def test_count_matches_fine_scan(name, kind):
    # N_mu just below and above every root of a pi / (64 ell) scan of det M
    graph = builtin_graph(name)
    problem = SpectralProblem(graph, poly_shaped_measure(graph, kind))
    count = EigenvalueCount(problem)
    roots = oracles.scan_spectrum(problem, 40.0, math.pi / 64.0)
    assert len(roots) >= 4
    assert min(b / a for (a, _), (b, _) in zip(roots, roots[1:])) > 1.0 + 4e-6
    below = 0
    for gamma, mult in roots:
        assert count(gamma * (1.0 - 1e-6)) == below
        below += mult
        assert count(gamma * (1.0 + 1e-6)) == below


def test_overlap_table_matches_loop_oracle():
    # zero, constant, linear and quadratic rows in one call
    rows = np.array([[0.0, 0.0, 0.0], [2.5, 0.0, 0.0], [0.3, -1.7, 0.0], [1.1, -0.4, 2.3]])
    lengths = np.array([0.7, 1.3, 0.21, 2.9])
    for row, length, got in zip(rows, lengths, _overlap(rows, lengths)):
        want = oracles.overlap(row, length)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14 * np.max(np.abs(want)))


WIDE_SPREAD = (["a", "b", "c"], [("e1", "a", "b", 1e-7), ("e2", "a", "b", 1.0),
                                  ("e3", "b", "c", 0.5)])


@pytest.mark.parametrize("beta", [1e-6, 1e-3, 1.0, 1e3, 1e8])
def test_count_vanishes_near_zero(beta):
    # rounding loses the eigenvalue of Lambda's constant direction here; read
    # from Lambda alone, without B's border, the count is 1 on many of these
    # graphs at gamma ell = 1e-7
    graphs = [builtin_graph(n) for n in (
        "interval", "circle", "banana:3", "k5", "k33", "petersen", "tetrahedron",
        "cube", "octahedron", "dodecahedron", "icosahedron")]
    graphs.append(build_graph(*WIDE_SPREAD))
    for graph in graphs:
        scaled = scale_graph(graph, beta)
        ell = total_length(scaled)
        for mu in (lebesgue_measure(scaled, normalize=True), canonical_measure(scaled)):
            count = EigenvalueCount(SpectralProblem(scaled, mu))
            assert [count(t / ell) for t in (1e-7, 1e-5, 1e-3)] == [0, 0, 0]


@pytest.mark.parametrize("kind", ["const", "poly"])
@pytest.mark.parametrize("beta", [1e-6, 1e-3, 1.0, 1e3, 1e8])
def test_count_vanishes_near_zero_with_densities(beta, kind):
    # the polynomial pieces of the count enter w through batched moments
    for name in ("interval", "circle", "banana:3", "k5", "k33", "petersen",
                 "tetrahedron", "cube", "octahedron", "dodecahedron", "icosahedron"):
        graph = scale_graph(builtin_graph(name), beta)
        ell = total_length(graph)
        count = EigenvalueCount(SpectralProblem(graph, poly_shaped_measure(graph, kind)))
        assert [count(t / ell) for t in (1e-7, 1e-5, 1e-3)] == [0, 0, 0], name


@pytest.mark.parametrize("beta", [1e-6, 1.0, 1e8])
@pytest.mark.parametrize("name", [
    "interval", "circle", "banana:3", "k5", "k33", "petersen", "tetrahedron",
    "cube", "octahedron", "dodecahedron", "icosahedron",
])
def test_count_equals_deflated_count(name, beta):
    # the inertia of B against the former route, #pos(Lambda) and the sign of
    # w apart with Lambda's constant direction deflated: 305 gammas with gamma
    # ell from 1e-7 to 200, and 1e-12 either side of the first two poles of
    # every piece (nearer than about 1e-13, the former route itself is off by
    # one at some of them; B's inertia, at fewer)
    graph = scale_graph(builtin_graph(name), beta)
    ell = total_length(graph)
    for mu in (lebesgue_measure(graph, normalize=True), canonical_measure(graph)):
        count = EigenvalueCount(SpectralProblem(graph, mu))
        poles = np.outer(math.pi / np.unique(count._lengths), [1.0, 2.0]).ravel()
        gammas = np.concatenate((np.geomspace(1e-7, 200.0, 305) / ell,
                                 poles * (1.0 - 1e-12), poles * (1.0 + 1e-12)))
        assert count(gammas) == oracles.deflated_counts(count, gammas)


def test_roots_on_piece_poles():
    # L1 = 1 / (2 GOLDEN_CUT) gives a circle of length 1 a golden piece of
    # length 1/2, so every root 2 pi k, each double, lies on one of its poles
    L1 = 0.5 / spectral.GOLDEN_CUT
    graph = build_graph(["a", "b"], [("e1", "a", "b", L1), ("e2", "a", "b", 1.0 - L1)])
    want = 2.0 * math.pi * np.arange(1, 16)
    for mu in (lebesgue_measure(graph, normalize=True), canonical_measure(graph)):
        pairs = find_eigenvalues(graph, mu, 100.0)
        assert [p.multiplicity for p in pairs] == [2] * 15
        np.testing.assert_allclose([math.sqrt(p.eigenvalue) for p in pairs], want,
                                   rtol=1e-13)


# eigenvalues (lambda, multiplicity) under poly_shaped_measure with gamma ell
# <= 40, as computed with one moment call per edge and piece
POLY_SPECTRA = {
    "tetrahedron": [(110.3938188536959, 1), (131.41869708453834, 2),
                    (299.269429091103, 1), (355.3057584392169, 1),
                    (570.4358231989108, 1), (688.2916180679712, 2),
                    (1158.6872720507229, 1), (1421.2230337568676, 3)],
    "cube": [(176.6661967274683, 1), (218.1975965481513, 2),
             (439.07904007198624, 1), (525.6747883381533, 2),
             (993.6321148878949, 1), (1421.2230337568676, 5)],
    "petersen": [(246.95168220298328, 1), (340.93374460648647, 4),
                 (897.2691178174256, 1), (1190.792384203225, 3)],
}


@pytest.mark.parametrize("name", sorted(POLY_SPECTRA))
def test_poly_measure_spectrum_is_unchanged(name):
    graph = builtin_graph(name)
    pairs = find_eigenvalues(graph, poly_shaped_measure(graph), 40.0 / total_length(graph))
    assert_spectrum(pairs, POLY_SPECTRA[name], rel=1e-13)


def test_count_and_nullspace_disagreeing_raises(monkeypatch, interval):
    nullspace = SpectralProblem.nullspace
    monkeypatch.setattr(SpectralProblem, "nullspace",
                        lambda self, gamma: [basis[:-1] for basis in nullspace(self, gamma)])
    with pytest.raises(NumericError, match="count rises by 1"):
        find_eigenvalues(interval, lebesgue_measure(interval), 4.0)


def atom_only_circle():
    """Atoms of 1/2 at the circle's two vertices: M drops a row at each
    triple root and keeps every row at each simple one."""
    circle = builtin_graph("circle")
    return circle, Measure(circle, [(circle.point_at_vertex(v), 0.5) for v in circle.vertices],
                           {})


@pytest.mark.parametrize("name,kind", [(name, kind) for name in BUILTIN_NAMES
                                       for kind in ("dx", "canonical")] + [("circle", "atoms")])
def test_stacked_nullspace_matches_per_root(name, kind):
    # the roots below gamma = 60 and the midpoints between them in one call:
    # each basis equals the scalar call's, vector for vector; the interval's
    # canonical measure is atom-only, and its integral row vanishes at each
    # double root, so a dropped-row matrix sits inside a stack
    if kind == "atoms":
        graph, mu = atom_only_circle()
    else:
        graph = builtin_graph(name)
        mu = table_measures(graph)[kind == "canonical"]
    problem = SpectralProblem(graph, mu)
    pairs = find_eigenvalues(graph, mu, 60.0)
    roots = [math.sqrt(p.eigenvalue) for p in pairs]
    gammas = np.sort(np.concatenate((roots, 0.5 * np.add(roots[1:], roots[:-1]))))
    rowmax = np.max(np.abs(problem._assemble(gammas)), axis=2)
    dropped = np.any(rowmax <= spectral.ZERO_ROW_REL * rowmax.max(axis=1, keepdims=True), axis=1)
    if (name, kind) in {("interval", "canonical"), ("circle", "atoms")}:
        assert 0 < np.count_nonzero(dropped) < len(gammas)
    stacked = problem.nullspace(gammas)
    assert len(stacked) == len(gammas)
    for gamma, basis in zip(gammas, stacked):
        alone = problem.nullspace(float(gamma))
        assert len(basis) == len(alone)
        assert all(np.array_equal(u, v) for u, v in zip(basis, alone))
    assert [len(b) for b in stacked[::2]] == [p.multiplicity for p in pairs]


def test_default_floor_scales_with_length(tetrahedron):
    def spectrum(beta):
        graph = scale_graph(tetrahedron, beta)
        pairs = find_eigenvalues(graph, lebesgue_measure(graph, normalize=True), 40.0 / beta)
        return [p.multiplicity for p in pairs], np.array([p.eigenvalue for p in pairs])

    mults, lams = spectrum(1.0)
    assert mults == [3, 2, 3, 4]
    for beta in (1e-6, 1e-3, 1e3, 1e5, 1e7, 1e8):
        got_mults, got = spectrum(beta)
        assert got_mults == mults
        np.testing.assert_allclose(got * beta**2, lams, rtol=1e-13, atol=0.0)


def test_find_eigenvalues_validation(interval):
    with pytest.raises(ValidationError):
        find_eigenvalues(interval, lebesgue_measure(interval), 0.0)
    with pytest.raises(ValidationError):
        find_eigenvalues(interval, dirac(interval, interval.point("e1", 0.5), 2.0), 10.0)


def test_root_count_is_capped_before_bisection(interval, monkeypatch):
    # about 3e149 roots below gamma = 1e150: the two first counts say so at once
    dx = lebesgue_measure(interval)
    with pytest.raises(ValidationError, match="3.1831e[+]149 eigenvalues"):
        find_eigenvalues(interval, dx, 1e150)
    # roots at gamma = n pi; a work budget of 3 roots at matrix size 3
    monkeypatch.setattr(spectral, "MAX_SCAN_WORK", 3 * (3 ** 3 + 230 * 3 ** 2 + 80_000))
    assert len(find_eigenvalues(interval, dx, 3.0 * math.pi + 0.3)) == 3
    with pytest.raises(ValidationError, match="4 eigenvalues"):
        find_eigenvalues(interval, dx, 4.0 * math.pi + 0.3)


def test_find_eigenvalues_rejects_infinite_bounds(interval):
    dx = lebesgue_measure(interval)
    with pytest.raises(ValidationError, match="finite"):
        find_eigenvalues(interval, dx, math.inf)
    with pytest.raises(ValidationError, match="finite"):
        find_eigenvalues(interval, dx, 10.0, gamma_floor=-math.inf)


# ------------------------------------------------------- eigenfunctions

def test_interval_eigenfunction_closed_form(interval):
    dx = lebesgue_measure(interval)
    for n in (1, 2, 3):
        pair = eigenfunctions_at(interval, dx, n * math.pi)
        assert pair.multiplicity == 1
        f = pair.eigenfunctions[0]
        xs = np.linspace(0.0, 1.0, 17)
        want = math.sqrt(2.0) * np.cos(n * math.pi * xs)
        sign = 1.0 if f.value("e1", 0.0) > 0 else -1.0
        np.testing.assert_allclose(sign * f.value("e1", xs), want, atol=1e-9)
        assert abs(f.constant) < 1e-9


def test_endpoint_atom_eigenfunction_closed_form(interval):
    # sqrt(2) sin(pi x / 2); here C = Lebesgue integral of f = 2 sqrt(2)/pi
    delta0 = dirac(interval, interval.point_at_vertex("a"))
    pair = eigenfunctions_at(interval, delta0, math.pi / 2.0)
    f = pair.eigenfunctions[0]
    xs = np.linspace(0.0, 1.0, 17)
    want = math.sqrt(2.0) * np.sin(0.5 * math.pi * xs)
    sign = 1.0 if f.value("e1", 0.5) > 0 else -1.0
    np.testing.assert_allclose(sign * f.value("e1", xs), want, atol=1e-9)
    assert abs(f.constant) == pytest.approx(2.0 * math.sqrt(2.0) / math.pi, rel=1e-9)


def test_eigenfunctions_at_rejects_non_root(interval):
    with pytest.raises(NumericError):
        eigenfunctions_at(interval, lebesgue_measure(interval), 1.2345)


def test_eigenpair_invariants_circle(circle):
    dx = lebesgue_measure(circle)
    funcs, lams = [], []
    for n in (1, 2):
        pair = eigenfunctions_at(circle, dx, 2 * math.pi * n)
        assert pair.multiplicity == 2
        rep = eigen_residuals(circle, dx, pair)
        assert rep.continuity < 1e-9
        assert rep.derivative < 1e-9
        assert rep.integral < 1e-9
        assert rep.operator < 1e-13
        for f in pair.eigenfunctions:
            funcs.append(f)
            lams.append(pair.eigenvalue)
            # uniform boundedness: normalized trig modes stay near sqrt(2)
            assert oracles.sup_norm(f, circle) < 2.0
    for i in range(len(funcs)):
        for j in range(len(funcs)):
            want = 1.0 if i == j else 0.0
            assert l2_inner(circle, funcs[i], funcs[j]) == pytest.approx(
                want, abs=1e-9
            )
            want_dir = lams[i] if i == j else 0.0
            assert oracles.dirichlet_inner(circle, funcs[i], funcs[j]) == pytest.approx(
                want_dir, abs=1e-6 * lams[i]
            )
    # Poincare consistency: total length and total mass are 1
    assert math.sqrt(lams[0]) >= 1.0


@pytest.mark.parametrize("name, kind, gamma", [
    pytest.param("circle", "dx", None, id="circle"),
    pytest.param("tetrahedron", "dx", None, id="tetrahedron"),
    *(pytest.param(name, kind, None, id=f"{name}-{kind}")
      for name in ("k5", "petersen") for kind in ("dx", "canonical")),
    pytest.param("k33", "canonical", 14.1371669411540, id="k33-canonical"),
])
def test_eigenspace_basis_survives_ulp_moves(name, kind, gamma):
    # a multiple eigenspace gets one basis, whatever the SVD returns; with a
    # probe of rank 2 the bases of dimension 4 and 5 (K5, K33, Petersen)
    # moved by up to 2.6 under this 4-ulp step
    graph = builtin_graph(name)
    mu = lebesgue_measure(graph, normalize=True) if kind == "dx" \
        else canonical_measure(graph)
    if gamma is None:  # the first multiple eigenvalue
        gamma = next(math.sqrt(p.eigenvalue) for p in find_eigenvalues(graph, mu, 20.0)
                     if p.multiplicity >= 2)
    eps = float(np.finfo(float).eps)

    def coefficients(g):
        pair = eigenfunctions_at(graph, mu, g)
        assert pair.multiplicity >= 2
        return np.array([[*f.trig[e.id], f.constant]
                         for f in pair.eigenfunctions for e in graph.edges])

    np.testing.assert_allclose(coefficients(gamma * (1.0 + 4.0 * eps)),
                               coefficients(gamma), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("name,kind,dim", [("petersen", "dx", 5), ("k33", "canonical", 4)])
def test_one_call_gram_matches_pairwise_l2_inner(name, kind, dim):
    graph = builtin_graph(name)
    mu = lebesgue_measure(graph, normalize=True) if kind == "dx" \
        else canonical_measure(graph)
    gamma = next(math.sqrt(p.eigenvalue) for p in find_eigenvalues(graph, mu, 20.0)
                 if p.multiplicity == dim)
    problem = SpectralProblem(graph, mu)
    basis = problem.nullspace(gamma)
    h = problem.particulars(gamma)
    funcs = [problem.solution(gamma, v, h) for v in basis]
    pairwise = np.array([[l2_inner(problem.graph, f1, f2) for f2 in funcs] for f1 in funcs])
    assert len(basis) == dim
    np.testing.assert_allclose(problem._gram(gamma, basis, h), pairwise,
                               rtol=0.0, atol=1e-14)


def test_eigen_residuals_interior_atom_and_linear_densities(tetrahedron):
    # the atom splits e2 in the working graph, and every profile of g_mu
    # read at an interior grid point kinks there: both parts of the exact
    # operator residual are exercised
    dens = {e.id: [1.0, -0.5 / e.length * (k % 2)] for k, e in enumerate(tetrahedron.edges)}
    scale = 0.75 / Measure(tetrahedron, (), dens).total_mass()
    e2 = tetrahedron.edge("e2")
    mu = Measure(tetrahedron, [(tetrahedron.point("e2", 0.3 * e2.length), 0.25)],
                 {eid: [c * scale for c in coeffs] for eid, coeffs in dens.items()})
    pairs = find_eigenvalues(tetrahedron, mu, 20.0)
    assert [p.multiplicity for p in pairs] == [1, 2, 1, 1]
    for p in pairs:
        rep = eigen_residuals(tetrahedron, mu, eigenfunctions_at(tetrahedron, mu,
                                                                 math.sqrt(p.eigenvalue)))
        assert rep.continuity < 1e-13
        assert rep.derivative < 1e-12
        assert rep.integral < 1e-13
        assert rep.operator < 1e-15


def test_eigen_residuals_requires_functions(interval):
    dx = lebesgue_measure(interval)
    bare = find_eigenvalues(interval, dx, 4.0)[0]
    with pytest.raises(ValidationError):
        eigen_residuals(interval, dx, bare)


def test_constant_function_is_not_an_eigenfunction(interval):
    # f = 1 written in basis form; its integral against a mass-one measure
    # is 1, so the defining orthogonality condition fails
    dx = lebesgue_measure(interval)
    problem = SpectralProblem(interval, dx)
    one = EdgeBasisSolution(1.0, {"e1": 0}, np.zeros((1, 2)), 1.0, np.ones((1, 1)))
    assert problem.mu_integral(one) == pytest.approx(1.0, rel=1e-12)


# ------------------------------------ one problem per (graph, measure)

@pytest.mark.parametrize("case", ["petersen", "paired"])
def test_one_problem_per_graph_and_measure(monkeypatch, case):
    # find_eigenvalues then eigenfunctions_at at every root build one problem
    # and confirm one nullspace per root, counted in gammas (the scan stacks
    # each level's roots into one call); new objects get a fresh problem
    def make_graph():  # Petersen has a 5-fold root, the other a close pair
        return builtin_graph("petersen") if case == "petersen" else \
            build_graph([f"v{i}" for i in range(12)], PAIRED_ROOTS_EDGES)

    def make_measure(graph):
        return lebesgue_measure(graph, normalize=True) if case == "petersen" else \
            poly_shaped_measure(graph, "const")

    init, nullspace = SpectralProblem.__init__, SpectralProblem.nullspace
    built, calls = [], []

    def counted_init(self, graph, mu):
        built.append(self)
        init(self, graph, mu)

    def counted_nullspace(self, gamma, *args):
        calls.extend([gamma] * np.size(gamma))
        return nullspace(self, gamma, *args)

    monkeypatch.setattr(SpectralProblem, "__init__", counted_init)
    monkeypatch.setattr(SpectralProblem, "nullspace", counted_nullspace)
    graph = make_graph()
    mu = make_measure(graph)
    pairs = find_eigenvalues(graph, mu, 40.0 / total_length(graph))
    funcs = [eigenfunctions_at(graph, mu, math.sqrt(p.eigenvalue)) for p in pairs]
    assert (len(built), len(calls)) == (1, len(pairs))
    assert [f.multiplicity for f in funcs] == [p.multiplicity for p in pairs]
    assert max(p.multiplicity for p in pairs) == (5 if case == "petersen" else 1)

    # a new measure object: a fresh problem, whose bases are computed afresh
    # and give the same functions bit for bit
    mu2 = make_measure(graph)
    for p, pair in zip(pairs, funcs):
        again = eigenfunctions_at(graph, mu2, math.sqrt(p.eigenvalue))
        for f, g in zip(pair.eigenfunctions, again.eigenfunctions):
            assert np.array_equal(f.ab, g.ab) and f.constant == g.constant
    assert (len(built), len(calls)) == (2, 2 * len(pairs))
    eigenfunctions_at(make_graph(), mu, math.sqrt(pairs[0].eigenvalue))
    assert (len(built), len(calls)) == (3, 2 * len(pairs) + 1)


def interior_atom_measure(graph):
    """Mass 1/2 at e1:0.05 and 1/2 spread evenly: mu is nonzero at the atom."""
    ell = total_length(graph)
    return Measure(graph, [(graph.point("e1", 0.05), 0.5)],
                   {e.id: [0.5 / ell] for e in graph.edges})


def test_functions_take_the_callers_points(tetrahedron):
    # e1 (length 1/6) is split at the atom into e1.1 and e1.2 = e1 - 0.05
    mu = interior_atom_measure(tetrahedron)
    ts = np.append(np.linspace(0.0, 1.0 / 6.0, 9), 0.05)
    for p in find_eigenvalues(tetrahedron, mu, 30.0):
        for f in eigenfunctions_at(tetrahedron, mu, math.sqrt(p.eigenvalue)).eigenfunctions:
            for method in (f.value, f.derivative):
                want = [method("e1.1", t) if t <= 0.05 else method("e1.2", t - 0.05)
                        for t in ts]
                assert np.array_equal(method("e1", ts), want)
                assert method("e1", 0.05) == method("e1.1", 0.05)
            assert f.at_point(tetrahedron.point("e1", 0.1)) == f.value("e1.2", 0.1 - 0.05)
            assert f.value("e2", 0.1) == f.value("e2", np.array([0.1]))[0]
    with pytest.raises(KeyError):
        f.value("e7", 0.1)


def _split_cases(tetrahedron, interval):
    """(graph, mu, gamma_max, the caller points where the atoms cut edges):
    e1 of the tetrahedron split once, the interval's e1 twice (0.3, 0.7)."""
    atoms = [(interval.point("e1", 0.3), 0.25), (interval.point("e1", 0.7), 0.25)]
    return [(tetrahedron, interior_atom_measure(tetrahedron), 30.0,
             [tetrahedron.point("e1", 0.05)]),
            (interval, Measure(interval, atoms, {"e1": [0.5]}), 30.0, [p for p, _ in atoms])]


def _edge_points(graph, count):
    return [graph.point(e.id, float(t)) for e in graph.edges
            for t in np.linspace(0.0, e.length, count)]


def test_array_reads_match_the_point_by_point_chain(tetrahedron, interval):
    # every read, at the caller's points and at the working graph's, is the
    # remap chain walked point by point and the scalar formula, to the bit
    for graph, mu, gamma_max, cuts in _split_cases(tetrahedron, interval):
        work = spectral._problem(graph, mu).graph
        point_sets = (_edge_points(graph, 9) + cuts, _edge_points(work, 6))
        for p in find_eigenvalues(graph, mu, gamma_max):
            for f in eigenfunctions_at(graph, mu, math.sqrt(p.eigenvalue)).eigenfunctions:
                for pts in point_sets:
                    ids, ts = [q.edge for q in pts], [q.offset for q in pts]
                    for derivative, method in ((False, f.value), (True, f.derivative)):
                        want = [oracles.solution_value(f, q, derivative) for q in pts]
                        assert np.array_equal(method(ids, ts), want)
                        assert [method(q.edge, q.offset) for q in pts] == want
                    assert [f.at_point(q) for q in pts] == [float(w) for w in
                                                            (oracles.solution_value(f, q)
                                                             for q in pts)]
                want = max(abs(oracles.solution_value(f, q)) for q in _edge_points(graph, 7))
                assert oracles.sup_norm(f, graph, 7) == want


def test_residuals_and_mercer_sums_match_the_loops(tetrahedron, interval):
    for graph, mu, gamma_max, cuts in _split_cases(tetrahedron, interval):
        problem = spectral._problem(graph, mu)
        pairs = [eigenfunctions_at(graph, mu, math.sqrt(p.eigenvalue))
                 for p in find_eigenvalues(graph, mu, gamma_max)]
        for pair in pairs:
            cont, der = np.max([oracles.vertex_residuals(problem, f)
                                for f in pair.eigenfunctions], axis=0)
            for samples in (0, 2):  # 0: every grid point a vertex, no profile kinks
                rep = eigen_residuals(graph, mu, pair, samples_per_edge=samples)
                assert rep.continuity == pytest.approx(cont, rel=1e-15, abs=0.0)
                assert rep.derivative == pytest.approx(der, rel=1e-15, abs=0.0)
                assert rep.operator == pytest.approx(
                    oracles.operator_residual(graph, mu, pair, samples), rel=1e-15, abs=0.0)
        pts = _edge_points(graph, 4) + cuts
        for x, y in zip(pts, pts[::-1]):
            assert mercer_partial_sum(pairs, x, y) == pytest.approx(
                oracles.mercer_sum(pairs, x, y), rel=1e-15, abs=0.0)


def test_mercer_sums_converge_at_an_interior_atom(tetrahedron):
    mu = interior_atom_measure(tetrahedron)
    x = tetrahedron.point("e1", 0.05)
    pairs = find_eigenvalues(tetrahedron, mu, 100.0)
    funcs = [eigenfunctions_at(tetrahedron, mu, math.sqrt(p.eigenvalue)) for p in pairs]
    gxx = build_green(tetrahedron, mu).g(x, x)
    rest = [gxx - mercer_partial_sum(funcs[:k], x, x) for k in range(1, len(funcs) + 1)]
    assert all(b <= a for a, b in zip(rest, rest[1:]))
    assert rest[0] > 0.05 * gxx
    assert 0.0 < rest[-1] < 5e-4 * gxx


# --------------------------------------------- second route: kernel oracle

def test_interior_atom_spectrum_vs_kernel_oracle(interval):
    # atoms strictly inside the edge exercise the auto-subdivision path
    atoms = [(interval.point("e1", 0.3), 0.5), (interval.point("e1", 0.7), 0.5)]
    mu = Measure(interval, atoms)
    pairs = find_eigenvalues(interval, mu, 4 * math.pi + 0.3)
    lams = flat_spectrum(pairs)
    oracle = oracles.kernel_eigenvalues(interval, atoms, None, 200, len(lams))
    np.testing.assert_allclose(lams, oracle, rtol=1e-3)

    pair = eigenfunctions_at(interval, mu, math.sqrt(pairs[0].eigenvalue))
    problem = SpectralProblem(interval, mu)
    for f in pair.eigenfunctions:
        assert l2_inner(problem.graph, f, f) == pytest.approx(1.0, abs=1e-9)
        assert abs(problem.mu_integral(f)) < 1e-9


def test_l2_inner_on_the_callers_graph(tetrahedron, circle):
    # the atom splits e1 in the working graph into e1.1 and e1.2; l2_inner
    # takes the caller's graph, as value() takes its edge ids, and gives the
    # same bits as on the working graph
    ell = total_length(tetrahedron)
    mu = Measure(tetrahedron, [(tetrahedron.point("e1", 0.05), 0.5)],
                 {e.id: [0.5 / ell] for e in tetrahedron.edges})
    work = SpectralProblem(tetrahedron, mu).graph
    pairs = find_eigenvalues(tetrahedron, mu, 40.0)
    assert sum(p.multiplicity for p in pairs) >= 3
    for p in pairs:
        funcs = eigenfunctions_at(tetrahedron, mu, math.sqrt(p.eigenvalue)).eigenfunctions
        for f1 in funcs:
            for f2 in funcs:
                assert l2_inner(tetrahedron, f1, f2) == l2_inner(work, f1, f2)
            assert l2_inner(tetrahedron, f1, f1) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValidationError, match="unknown edge"):
        l2_inner(circle, funcs[0], funcs[0])


def test_scan_bases_keep_no_view_of_the_stack():
    # each level's bases come from one stacked SVD; a cached basis must not
    # keep that level's whole stack of singular vectors alive
    graph = builtin_graph("dodecahedron")
    mu = lebesgue_measure(graph, normalize=True)
    pairs = find_eigenvalues(graph, mu, 60.0)
    bases = spectral._problem(graph, mu).bases
    assert len(bases) == len(pairs) >= 3
    for basis in bases.values():
        for v in basis:
            assert v.base is None or v.base.size <= len(basis) * v.size


def test_tetrahedron_spectrum_vs_kernel_oracle(tetrahedron):
    dx = lebesgue_measure(tetrahedron)
    pairs = find_eigenvalues(tetrahedron, dx, 19.1)
    assert [p.multiplicity for p in pairs] == [3, 2]
    assert pairs[0].eigenvalue == pytest.approx(131.42, abs=0.01)
    assert pairs[1].eigenvalue == pytest.approx(355.31, abs=0.01)
    lams = flat_spectrum(pairs)
    densities = {e.id: float(dx.density(e.id)[0]) for e in tetrahedron.edges}
    oracle = oracles.kernel_eigenvalues(tetrahedron, (), densities, 60, len(lams))
    np.testing.assert_allclose(lams, oracle, rtol=1e-3)


def test_canonical_measure_spectrum_vs_kernel_oracle():
    g = builtin_graph("k33")
    mu = canonical_measure(g)
    pairs = find_eigenvalues(g, mu, 14.2)
    lams = flat_spectrum(pairs)
    assert lams[0] == pytest.approx(105.63, abs=0.01)
    atoms = list(mu.atoms)
    densities = {e.id: float(mu.density(e.id)[0]) for e in g.edges}
    oracle = oracles.kernel_eigenvalues(g, atoms, densities, 40, len(lams))
    np.testing.assert_allclose(lams, oracle, rtol=1e-3)


# ----------------------------------------------------- scaling and trials

def test_scaling_law_parallel_edges():
    g = builtin_graph("banana:3")
    # at beta = 1e-3 the root sits near gamma = 9425, where the float spacing
    # (1.8e-12) exceeds root_tol; the polish must still stop
    for beta in (2.0, 0.5, 1e-3):
        scaled = scale_graph(g, beta)
        mu = lebesgue_measure(scaled, normalize=True)
        pairs = find_eigenvalues(scaled, mu, 3 * math.pi / beta + 0.3)
        assert pairs[0].multiplicity == 3
        assert pairs[0].eigenvalue == pytest.approx(9 * PI2 / beta**2, rel=1e-9)


def test_rayleigh_quotient_interval(interval):
    dx = lebesgue_measure(interval)
    tilt = CPAFunction(interval, {"a": -0.5, "b": 0.5})
    q = rayleigh_quotient(interval, dx, tilt)
    assert q == pytest.approx(12.0, rel=1e-12)
    assert q >= PI2

    # affine resampling of the true ground mode drives the quotient to pi^2
    nodes = [(k / 40.0, math.cos(math.pi * k / 40.0)) for k in range(1, 40)]
    resampled = CPAFunction(interval, {"a": 1.0, "b": -1.0}, {"e1": nodes})
    q = rayleigh_quotient(interval, dx, resampled)
    assert PI2 * (1.0 - 1e-12) <= q <= PI2 * 1.01

    with pytest.raises(ValidationError):
        rayleigh_quotient(interval, dx, CPAFunction(interval, {"a": 1.0, "b": 1.0}))


def test_mercer_partial_sums_interval(interval):
    dx = lebesgue_measure(interval)
    pairs = [eigenfunctions_at(interval, dx, n * math.pi) for n in range(1, 7)]

    # partial sums agree with the explicit cosine series
    x = interval.point("e1", 0.3)
    y = interval.point("e1", 0.7)
    for N in (1, 3, 6):
        want = sum(
            2.0 * math.cos(n * math.pi * 0.3) * math.cos(n * math.pi * 0.7)
            / (n * n * PI2)
            for n in range(1, N + 1)
        )
        assert mercer_partial_sum(pairs[:N], x, y) == pytest.approx(want, abs=1e-9)

    def closed(s, t):
        lo, hi = min(s, t), max(s, t)
        return 0.5 * lo * lo + 0.5 * (1.0 - hi) ** 2 - 1.0 / 6.0

    grid = [interval.point("e1", t) for t in np.linspace(0.0, 1.0, 8)]
    sups = []
    for N in range(1, 7):
        worst = max(
            abs(closed(p.offset, q.offset) - mercer_partial_sum(pairs[:N], p, q))
            for p in grid
            for q in grid
        )
        sups.append(worst)
    for a, b in zip(sups, sups[1:]):
        assert b <= a + 1e-9

    # partial traces increase toward 1/6 from below
    partial = np.cumsum([1.0 / p.eigenvalue for p in pairs])
    assert np.all(np.diff(partial) > 0)
    assert partial[-1] < 1.0 / 6.0
