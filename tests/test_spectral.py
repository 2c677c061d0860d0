"""Eigenvalue solver tests.

Closed-form spectra (interval, circle, parallel edges), eigenpair invariants,
and a second numerical route through the discretized integral operator: the
solver chases roots of det M(gamma), the oracle diagonalizes the Green matrix
of a fine resistor network, and the two must agree.
"""

import functools
import importlib
import math
import os

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly
from scipy.optimize import brentq

import oracles
from conftest import random_cubic
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
    trace_of_phi,
)
from metragraph.cli import TABLE_GAMMA_MAX
from metragraph.numerics import DEFAULT_RANK_TOL
from metragraph import spectral
from metragraph.spectral import (
    EdgeBasisSolution,
    EigenvalueCount,
    _exp_moments,
    _overlap,
    _particular_table,
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


def assert_matches_reference(problem, gammas=REFERENCE_GAMMAS):
    """M(gamma), built directly, against the entry-by-entry oracle, row-relative."""
    for g in gammas:
        got = problem._assemble(g)
        want = oracles.secular_matrix(problem, g)
        scale = np.max(np.abs(want), axis=1, keepdims=True)
        assert np.max(np.abs(got - want) / scale) <= 1e-13, g


BUILTIN_NAMES = ["interval", "circle", "banana:3", "k5", "k33", "petersen", "tetrahedron",
                 "cube", "octahedron", "dodecahedron", "icosahedron"]


@pytest.mark.parametrize("name", [*BUILTIN_NAMES, "cubic300"])
def test_direct_matrix_matches_reference(name):
    # and the seed-7 random cubic graph with m = 300 at 3 gammas: under
    # canonical, the C entry of its integral row is a sum of about 200 atoms
    # of -1/2 that cancel, which M adds in the oracle's (_atom_mass) order
    if name == "cubic300":
        graph, gammas = random_cubic(7, 300), [0.05, 1.7, 23.0]
        measures = (lebesgue_measure(graph, normalize=True), canonical_measure(graph))
    else:
        graph, gammas = builtin_graph(name), REFERENCE_GAMMAS
        measures = (lebesgue_measure(graph), canonical_measure(graph))
    for mu in measures:
        assert_matches_reference(SpectralProblem(graph, mu), gammas)


def test_direct_matrix_matches_reference_atoms_and_polynomials(tetrahedron):
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
        assert problem.size == 15  # the interior atom split one edge
        assert_matches_reference(problem)


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
    # gammas read, and the stacked reads of B that read them, over the 16
    # scans behind reproduce-table: the secant's reads, and the counts (at
    # the ends, at the midpoints and beside multiple roots), which share the
    # stacks; the former route's bounds were 500 secant gammas in 130 stacks
    # and 1000 counts in 160
    secant, counts, stacks = [], [], []
    read_at, readings = spectral._read_at, EigenvalueCount.readings
    matrices = spectral._CountPlan.matrices

    def counting(asks):
        counted = sum(isinstance(ask[0], EigenvalueCount) for ask in asks)
        counts.append(counted)
        secant.append(len(asks) - counted)
        return read_at(asks)

    def ends(self, gs):  # the count at the floor and at gamma_max
        counts.append(len(gs))
        secant.append(-len(gs))
        return readings(self, gs)

    def stacked(self, gs):
        stacks.append(len(gs))
        return matrices(self, gs)

    monkeypatch.setattr(spectral, "_read_at", counting)
    monkeypatch.setattr(EigenvalueCount, "readings", ends)
    monkeypatch.setattr(spectral._CountPlan, "matrices", stacked)
    for name in TABLE_GRAPHS:
        graph = builtin_graph(name)
        for mu in table_measures(graph):
            find_eigenvalues(graph, mu, TABLE_GAMMA_MAX)
    assert sum(secant) <= 400
    assert sum(counts) <= 600
    assert len(stacks) <= 290


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


# ------------------------------------------------- the lockstep scan

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
    # the roots n pi below 700: the widest steps hold over 100 brackets
    sizes, matrices = [], spectral._CountPlan.matrices
    monkeypatch.setattr(spectral._CountPlan, "matrices",
                        lambda self, gs: sizes.append(len(gs)) or matrices(self, gs))
    got = assert_same_as_depth_first(interval, lebesgue_measure(interval), 700.0)
    assert len(got) == 222
    assert max(sizes) == spectral.MAX_BATCH and sizes.count(spectral.MAX_BATCH) > 1


def test_stacks_of_large_matrices_hold_fewer_gammas(monkeypatch):
    # with room for three 21 x 21 matrices per stack, the dodecahedron's
    # stacked reads of B (n + 1 = 21 rows) take at most three gammas each,
    # to the same roots
    graph = builtin_graph("dodecahedron")
    mu = canonical_measure(graph)
    monkeypatch.setattr(spectral, "MAX_STACK_ENTRIES", 3 * 21 * 21 + 20)
    sizes, matrices = [], spectral._CountPlan.matrices

    def counting(self, gs):
        sizes.append((self.nodes + 1, len(gs)))
        return matrices(self, gs)

    monkeypatch.setattr(spectral._CountPlan, "matrices", counting)
    assert SpectralProblem(graph, mu).count.whole.nodes + 1 == 21
    assert_same_as_depth_first(graph, mu, TABLE_GAMMA_MAX)
    assert max(n for size, n in sizes if size == 21) == 3


@pytest.mark.parametrize("case", ["table", "paired", "poly"])
def test_stacked_values_equal_scalar_ones(case):
    # counts at 200 random gammas, and readings of B at 40 of them, each
    # gamma with its own D, with the D of another gamma, and half of each in
    # one mixed stack: one stacked call each against calls of one gamma, bit
    # for bit
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
        counts = problem.count(gammas)
        assert counts == [problem.count(float(g)) for g in gammas]
        assert all(type(c) is int for c in counts)
        gammas = gammas[:40]
        for plan in (problem.count.whole, problem.count.golden):
            own = plan.readings(gammas)
            given = np.array([r[3] for r in own[::-1]])
            mixed = given.copy()
            mixed[::2] = np.nan
            for scales in ((), (given,), (mixed,)):
                stacked = plan.readings(gammas, *scales)
                for i, (g, r) in enumerate(zip(gammas, stacked)):
                    alone = plan.readings(np.array([g]), *(row[i:i + 1] for row in scales))[0]
                    assert r[0] == alone[0] and r[4] == alone[4]
                    assert np.array_equal(r[2], alone[2]) and np.array_equal(r[3], alone[3])
                    if scales and not (scales[0] is mixed and i % 2 == 0):
                        assert np.array_equal(r[3], scales[0][i])
                    else:
                        assert np.array_equal(r[3], own[i][3])


def test_one_pole_rule(tetrahedron, interval, monkeypatch):
    # _near_pole on arrays is its scalar calls, entry by entry, and the plan
    # that _read_at gives a count ask is the former per-gamma rule
    # (oracles.pole_plans): at k pi / L (1 -+ 1e-5), (1 -+ 1e-7) and k pi / L
    # for every edge length L and k <= 199, and at 200,000 uniform gammas.
    # The two rules part only within a few ulps of x = gamma L / pi = k / (1
    # -+ POLE_REL), where < and <= and the rounding of x (1 -+ POLE_REL)
    # differ; both plans are exact there (1e-6 out from the pole, where
    # whole edges miscount only within 3e-9), so the sweep leaves out the
    # gammas within 16 ulps of such an x
    monkeypatch.setattr(spectral._CountPlan, "readings",
                        lambda self, gs, *scales: [(None, self)] * len(gs))
    rng, eps = np.random.default_rng(3), np.finfo(float).eps
    for graph in (tetrahedron, interval, random_cubic(3, 30)):
        count = SpectralProblem(graph, lebesgue_measure(graph, normalize=True)).count
        L = count.whole.lengths
        poles = (np.arange(1.0, 200.0)[:, None] * math.pi / np.unique(L)).ravel()
        gs = np.concatenate([poles * f for f in (1 - 1e-5, 1 + 1e-5, 1 - 1e-7, 1 + 1e-7, 1.0)]
                            + [rng.uniform(0.0, 200.0 * math.pi / L.min(), 200_000)])
        x = gs[:, None] * L / math.pi
        edge = [np.abs(y - np.round(y)) <= 16.0 * eps * y
                for y in (x * (1.0 - spectral.POLE_REL), x * (1.0 + spectral.POLE_REL))]
        gs = gs[~(edge[0] | edge[1]).any(axis=1)]
        assert gs.size > 200_000
        golden = [r[1] is count.golden for r in spectral._read_at([(count, g, None)
                                                                   for g in gs.tolist()])]
        assert golden == [p is count.golden for p in oracles.pole_plans(count, gs)]
        assert 3 * len(poles) <= sum(golden) < gs.size // 2  # (1 -+ 1e-7) and 1.0 on golden
        a, b = gs[::40] * (1.0 - spectral.NULL_REL), gs[::40] * (1.0 + spectral.NULL_REL)
        for lo, hi in ((gs[::40], gs[::40]), (a, b)):
            assert spectral._near_pole(L, lo, hi).tolist() == [
                bool(spectral._near_pole(L, g, h)) for g, h in zip(lo.tolist(), hi.tolist())]


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


def test_poly_moments_match_integration_by_parts():
    # 320 random rows of degree <= 5, L in 10^[-2, 2] and gamma L in
    # 10^[-6, 1.7], in one kernel read at all 320 gammas at once, so that
    # each gamma mixes series and closed-form rows; row r at gammas[r] against
    # 150 digits, to 2e-15 of sum_k |Q_k| L^(k+1) (worst measured 2.8e-16)
    rng = np.random.default_rng(37)
    n = 320
    degree = rng.integers(0, 6, n)
    Q = rng.uniform(-1.0, 1.0, (n, 6)) * (np.arange(6) <= degree[:, None])
    L = 10.0 ** rng.uniform(-2.0, 2.0, n)
    gammas = 10.0 ** rng.uniform(-6.0, 1.7, n) / L
    x = gammas * L
    assert (x < spectral._CROSSOVER).sum() > 100 and (x >= spectral._CROSSOVER).sum() > 30
    moments = spectral._poly_moments(Q, L)
    got = moments(gammas)
    scale = np.sum(np.abs(Q) * L[:, None] ** np.arange(1.0, 7.0), axis=1)
    want = [oracles.poly_moment_by_parts(q, length, g) for q, length, g in zip(Q, L, gammas)]
    assert np.max(np.abs(np.diagonal(got) - want) / scale) < 2e-15
    # each gamma takes the bits of a read of its own
    for i in range(0, n, 7):
        assert np.array_equal(got[i], moments(gammas[i:i + 1])[0])


def test_poly_moments_span_length_bands():
    # lengths over 10^[-15, 15], so that one kernel holds several bands of
    # 1e4 each with its own power table: no power overflows (pyproject.toml
    # raises RuntimeWarnings) and each row holds 2e-15 of sum_k |Q_k| L^(k+1)
    rng = np.random.default_rng(38)
    n = 60
    Q = rng.uniform(-1.0, 1.0, (n, 6))
    L = 10.0 ** rng.uniform(-15.0, 15.0, n)
    gammas = 10.0 ** rng.uniform(-6.0, 1.7, n) / L
    got = np.diagonal(spectral._poly_moments(Q, L)(gammas))
    scale = np.sum(np.abs(Q) * L[:, None] ** np.arange(1.0, 7.0), axis=1)
    want = [oracles.poly_moment_by_parts(q, length, g) for q, length, g in zip(Q, L, gammas)]
    assert np.max(np.abs(got - want) / scale) < 2e-15
    # a scan whose pieces' lengths differ by 1e11 and by 1e13
    spectra = []
    for short in (1e-11, 1e-13):
        graph = build_graph(["a", "b", "c"], [("e1", "a", "b", short), ("e2", "a", "b", 1.0),
                                              ("e3", "b", "c", 0.5)])
        spectra.append(find_eigenvalues(graph, poly_shaped_measure(graph), 40.0))
    assert len(spectra[0]) == 18
    assert_spectrum(spectra[1], [(p.eigenvalue, p.multiplicity) for p in spectra[0]], rel=1e-9)


@pytest.mark.parametrize("name", ["tetrahedron", "cube"])
def test_poly_moments_hold_at_tiny_floors(name):
    # from gamma ell = 1e-100 and 1e-200 the series rows see gamma^j
    # underflow and the closed-form ones are never read there: no
    # RuntimeWarning (pyproject.toml raises them), and the roots of the
    # scan from 1e-12 to 1e-13
    graph = builtin_graph(name)
    mu = poly_shaped_measure(graph)
    gamma_max = 40.0 / total_length(graph)
    want = find_eigenvalues(graph, mu, gamma_max, gamma_floor=1e-12)
    for floor in (1e-100, 1e-200):
        got = find_eigenvalues(graph, mu, gamma_max, gamma_floor=floor)
        assert_spectrum(got, [(p.eigenvalue, p.multiplicity) for p in want], rel=1e-13)


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
    # w apart with Lambda's constant direction deflated: the whole plan at 305
    # gammas with gamma ell from 1e-7 to 200, and the golden plan 1e-12
    # either side of the first two poles of every golden piece (nearer than
    # about 1e-13, the former route itself is off by one at some of them; B's
    # inertia, at fewer)
    graph = scale_graph(builtin_graph(name), beta)
    ell = total_length(graph)
    for mu in (lebesgue_measure(graph, normalize=True), canonical_measure(graph)):
        count = EigenvalueCount(SpectralProblem(graph, mu))
        gammas = np.geomspace(1e-7, 200.0, 305) / ell
        assert count.whole(gammas) == oracles.deflated_counts(count.whole, gammas)
        poles = np.outer(math.pi / np.unique(count.golden.lengths), [1.0, 2.0]).ravel()
        gammas = np.concatenate((poles * (1.0 - 1e-12), poles * (1.0 + 1e-12)))
        assert count.golden(gammas) == oracles.deflated_counts(count.golden, gammas)


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


@pytest.mark.parametrize("name", [n for n in BUILTIN_NAMES if n != "banana:3"])
def test_count_is_exact_near_golden_piece_poles(name):
    # both sides of the first four poles of each golden piece, 1e-12 to 1e-15
    # relative away, against the count 1e-5 away on the same side; through
    # the golden plan alone, 93 of these 1,920 points over the ten graphs
    # were off by one, as the floor term and sin(gamma L) took different
    # sides of the pole
    graph = builtin_graph(name)
    for mu in table_measures(graph):
        count = SpectralProblem(graph, mu).count
        poles = np.outer(math.pi / np.unique(count.golden.lengths), np.arange(1, 5)).ravel()
        for side in (-1.0, 1.0):
            want = count(poles * (1.0 + side * 1e-5))
            for rel in (1e-12, 1e-13, 3e-14, 1e-14, 3e-15, 1e-15):
                assert count(poles * (1.0 + side * rel)) == want, (side, rel)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_count_equals_golden_plan_near_edge_poles_with_roots(name):
    # the first eight poles of the whole edges that carry a root, 1e-3 to
    # 1e-12 relative away on both sides: whole edges there are off by one
    # from about 3e-9 in, so the count must switch to the golden plan first
    graph = builtin_graph(name)
    for mu in table_measures(graph):
        count = SpectralProblem(graph, mu).count
        poles = np.outer(math.pi / np.unique(count.whole.lengths), np.arange(1, 9)).ravel()
        rooted = poles[np.greater(count.golden(poles * (1.0 + 1e-12)),
                                  count.golden(poles * (1.0 - 1e-12)))]
        assert rooted.size
        gammas = np.outer(rooted, 1.0 + np.outer([-1.0, 1.0], 10.0 ** -np.arange(3, 13))).ravel()
        assert count(gammas) == count.golden(gammas)


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


def test_a_rank_decision_that_never_agrees_raises(monkeypatch, interval):
    # with no eigenvalue of B small enough to count, no root is confirmed,
    # and the bracket of pi is bisected to float resolution
    monkeypatch.setattr(spectral, "DEFAULT_RANK_TOL", 0.0)
    with pytest.raises(NumericError, match="count rises by 1"):
        find_eigenvalues(interval, lebesgue_measure(interval), 4.0)


def test_eigenfunctions_at_checks_the_basis_dimension(monkeypatch):
    # null vectors of B one short of the count's multiplicity raise
    graph = builtin_graph("tetrahedron")
    mu = lebesgue_measure(graph, normalize=True)
    pairs = find_eigenvalues(graph, mu, 19.1)
    assert [p.multiplicity for p in pairs] == [3, 2]
    null_vectors = spectral._CountPlan.null_vectors
    monkeypatch.setattr(spectral._CountPlan, "null_vectors",
                        lambda self, gs: [Y[:, :-1] for Y in null_vectors(self, gs)])
    with pytest.raises(NumericError, match=r"has dimension 2, but the eigenvalue count "
                                           r"rises by 3"):
        eigenfunctions_at(graph, mu, math.sqrt(pairs[0].eigenvalue))


def scan_then_eigenfunctions(patch):
    """The dodecahedron under dx-normalized, scanned up to gamma L = 4 on
    every edge, then its eigenfunctions at every root, last root first,
    with the calls of the stacked stages counted (patch: a monkeypatch
    context): per call, null_vectors' (plan, gammas), the gammas of each
    build of B after the scan and of each stack of Gram matrices, and the
    moment calls (the measure has constant densities, so that only the
    Gram calls _exp_moments)."""
    graph = builtin_graph("dodecahedron")
    mu = lebesgue_measure(graph, normalize=True)
    calls = {"null_vectors": [], "matrices": [], "_gram": [], "_exp_moments": []}

    def counted(owner, name, note):  # calls[name] gets note(*args) per call
        method = getattr(owner, name)

        def wrapper(*args):
            calls[name].append(note(*args))
            return method(*args)
        patch.setattr(owner, name, wrapper)

    counted(spectral._CountPlan, "null_vectors", lambda self, gs: (self, len(gs)))
    counted(spectral._CountPlan, "matrices", lambda self, gs: len(gs))
    counted(SpectralProblem, "_gram", lambda self, gs, vecs: len(gs))
    counted(spectral, "_exp_moments", lambda *args: None)
    # the root at the edges' pole gamma L = pi (multiplicity 10) takes the
    # golden plan, the other seven whole edges
    pairs = find_eigenvalues(graph, mu, 120.0)
    problem = spectral._problem(graph, mu)
    assert calls["null_vectors"] == calls["_exp_moments"] == [] and problem.bases == {}
    assert [p.multiplicity for p in pairs] == [3, 5, 4, 4, 3, 10, 3, 4]
    calls["matrices"].clear()
    first = eigenfunctions_at(graph, mu, math.sqrt(pairs[-1].eigenvalue))
    done = {key: list(v) for key, v in calls.items()}
    funcs = [eigenfunctions_at(graph, mu, math.sqrt(p.eigenvalue)) for p in pairs[-2::-1]]
    assert calls == done  # the later calls only wrap the kept vectors
    assert [len(problem.bases[math.sqrt(p.eigenvalue)]) for p in pairs] \
        == [p.multiplicity for p in pairs] == [f.multiplicity for f in funcs[::-1] + [first]]
    assert {plan for plan, _ in calls["null_vectors"]} \
        == {problem.count.whole, problem.count.golden}
    return funcs[::-1] + [first], calls


def test_one_stacked_nullspace_call_fills_all_bases(monkeypatch):
    # the first eigenfunctions_at after a scan finishes all its roots: one
    # stacked eigh of B per plan, B built once for both of its gammas, and
    # per multiplicity (3, 4, 5, 10) one Gram moment call for all its
    # roots; the scan takes none of this and the later calls do nothing
    with monkeypatch.context() as patch:
        _, calls = scan_then_eigenfunctions(patch)
    assert sorted(n for _, n in calls["null_vectors"]) == [1, 7]
    assert sorted(calls["matrices"]) == [2, 14]  # B at both gammas of 1 and 7
    assert sorted(calls["_gram"]) == [1, 1, 3, 3] and len(calls["_exp_moments"]) == 4


def test_capped_stacks_give_the_same_functions(monkeypatch):
    # with room for two roots' moment tables (2 m rows of 48 powers, m =
    # 30) per stack, the groups of three roots take two Gram calls each,
    # and null_vectors builds B (two 21 x 21 matrices per gamma on whole
    # edges, two 51 x 51 on golden pieces) for six gammas, one and one:
    # the same bits
    with monkeypatch.context() as patch:
        want, _ = scan_then_eigenfunctions(patch)
    monkeypatch.setattr(spectral, "MAX_STACK_ENTRIES", 2 * 2 * 30 * 48)
    with monkeypatch.context() as patch:
        got, calls = scan_then_eigenfunctions(patch)
    assert sorted(n for _, n in calls["null_vectors"]) == [1, 7]
    assert sorted(calls["matrices"]) == [2, 2, 12]  # B at both gammas of 1, 1 and 6
    assert sorted(calls["_gram"]) == [1, 1, 1, 1, 2, 2] and len(calls["_exp_moments"]) == 6
    for pair, again in zip(want, got):
        for f, g in zip(pair.eigenfunctions, again.eigenfunctions):
            assert np.array_equal(f.ab, g.ab) and f.constant == g.constant
            assert np.array_equal(f.h, g.h)


def test_a_degenerate_gram_matrix_raises_at_its_root_alone(monkeypatch):
    # a root whose Gram matrix is degenerate (zeroed here) raises on every
    # request, and the other roots of its stack keep their bits: one of the
    # three of multiplicity 3, and the one of multiplicity 10, a stack that
    # has no root left to orthonormalize
    graph = builtin_graph("dodecahedron")
    mu = lebesgue_measure(graph, normalize=True)
    pairs = find_eigenvalues(graph, mu, 120.0)
    want = [eigenfunctions_at(graph, mu, math.sqrt(p.eigenvalue)) for p in pairs]
    bad = [math.sqrt(pairs[n].eigenvalue) for n in (0, 5)]
    assert [pairs[n].multiplicity for n in (0, 5)] == [3, 10]
    gram = SpectralProblem._gram

    def zeroed(self, gammas, vecs):
        G = gram(self, gammas, vecs)
        G[np.isin(gammas, bad)] = 0.0
        return G

    monkeypatch.setattr(SpectralProblem, "_gram", zeroed)
    mu = lebesgue_measure(graph, normalize=True)
    assert find_eigenvalues(graph, mu, 120.0) == pairs
    for p, pair in zip(pairs, want):
        gamma = math.sqrt(p.eigenvalue)
        if gamma in bad:
            for _ in range(2):
                with pytest.raises(NumericError, match="degenerate Gram matrix"):
                    eigenfunctions_at(graph, mu, gamma)
            continue
        for f, g in zip(pair.eigenfunctions,
                        eigenfunctions_at(graph, mu, gamma).eigenfunctions):
            assert np.array_equal(f.ab, g.ab) and f.constant == g.constant


def stretched_tetrahedron(eps):
    """The tetrahedron with e1 lengthened by the factor 1 + eps: its triple
    root near gamma = 11.4638 splits at second order in eps, into two
    simple roots 1e-11 to 1e-7 apart relative to the root and a third."""
    t = builtin_graph("tetrahedron")
    return build_graph(list(t.vertices), [(e.id, e.u, e.v, e.length * (1.0 + eps)
                                           if e.id == "e1" else e.length) for e in t.edges])


@pytest.mark.parametrize("kind", ["dx-normalized", "canonical"])
@pytest.mark.parametrize("eps", [1e-3, 1e-4, 3e-5, 1e-5])
def test_close_simple_roots_are_confirmed(eps, kind):
    # a root stands when the eigenvalues of B that cross zero in its
    # bracket vanish; the eigenvalue of a close neighbour that vanishes too
    # (counted as well, the scan raised "no root there has a nullspace that
    # big" in 6 of these 8 cases) does not discard it
    graph = stretched_tetrahedron(eps)
    mu = lebesgue_measure(graph, normalize=True) if kind == "dx-normalized" \
        else canonical_measure(graph)
    pairs = find_eigenvalues(graph, mu, 20.0)
    assert sum(p.multiplicity for p in pairs) == spectral._problem(graph, mu).count(20.0)


def test_close_simple_roots_are_the_secular_roots():
    # at eps = 1e-4 the two simple roots lie 1.7e-9 relative apart: det M
    # changes sign across 1e-11 relative of each.  Each root's eigenspace
    # is ill-posed at this distance, and eigenfunctions_at raises, as the
    # SVD of M, which finds two null vectors at each, would
    graph = stretched_tetrahedron(1e-4)
    mu = lebesgue_measure(graph, normalize=True)
    pairs = find_eigenvalues(graph, mu, 20.0)
    gammas = [math.sqrt(p.eigenvalue) for p in pairs[:2]]
    assert gammas == [11.463512817574077, 11.463512836932413]
    assert [p.multiplicity for p in pairs[:2]] == [1, 1]
    problem = spectral._problem(graph, mu)
    for gamma in gammas:
        dets = [np.linalg.det(oracles.secular_matrix(problem, gamma * (1.0 + s * 1e-11)))
                for s in (-1.0, 1.0)]
        assert dets[0] * dets[1] < 0.0
        assert len(problem.nullspace(gamma)) == 2
        with pytest.raises(NumericError, match=r"has dimension 2, but the eigenvalue count "
                                               r"rises by 1"):
            eigenfunctions_at(graph, mu, gamma)


def test_scan_and_eigenfunctions_never_assemble_m(tetrahedron, monkeypatch):
    # a scan and the eigenfunctions at every root run with M's assembly
    # disabled; then characteristic_det equals the determinant of the
    # row-equilibrated oracle M at 1e-15
    def refuse(self, gamma):
        raise AssertionError("M assembled")

    for mu in (lebesgue_measure(tetrahedron, normalize=True), poly_shaped_measure(tetrahedron)):
        with monkeypatch.context() as patch:
            patch.setattr(SpectralProblem, "_assemble", refuse)
            for p in find_eigenvalues(tetrahedron, mu, 20.0):
                eigenfunctions_at(tetrahedron, mu, math.sqrt(p.eigenvalue))
        problem = spectral._problem(tetrahedron, mu)
        assert problem.bases and len(problem.bases) == len(problem.roots)
        for g in (0.5, 3.0, 11.0, 20.0):
            M = oracles.secular_matrix(problem, g)
            want = np.linalg.det(M / np.abs(M).max(axis=1, keepdims=True))
            assert abs(characteristic_det(tetrahedron, mu, g) - want) <= 1e-15, g


def near_pole_path(offset):
    """A path of three edges, total length 1, under dx-normalized: the
    interval's spectrum, and the root 2 pi lies offset relative above the
    first pole of e1 and off the poles of e2 and e3."""
    lengths = [0.5 / (1.0 - offset), 0.3]
    graph = build_graph(["a", "b", "c", "d"], [("e1", "a", "b", lengths[0]),
                                               ("e2", "b", "c", lengths[1]),
                                               ("e3", "c", "d", 1.0 - sum(lengths))])
    return graph, lebesgue_measure(graph, normalize=True), [2.0 * math.pi]


def svd_route_cases():
    """(id, graph, measure, the gammas to compare, the ill-posed ones among
    them): a scan's roots where a gamma_max is given, else the gammas."""
    tet, dodeca, interval = (builtin_graph(n) for n in ("tetrahedron", "dodecahedron",
                                                       "interval"))
    atom = Measure(tet, [(tet.point("e1", 0.05), 1.0)])
    circle = builtin_graph("circle")
    workloads = importlib.import_module("workloads")
    spec = workloads.random_cubic(workloads._rng(0, 1), 30)
    cubic = build_graph(*spec)
    cubic_mu = workloads._measure(cubic, workloads._spectrum_measure(spec[1], "poly"))
    six_pi = 6.0 * math.pi
    return [
        # index 5 of cli_golden.txt's atom.json block: four coefficients tie
        ("atom", tet, atom, 20.0, [355.305758439]),
        ("dodecahedron", dodeca, lebesgue_measure(dodeca, normalize=True), 100.0, []),
        ("circle", circle, lebesgue_measure(circle), [2.0 * math.pi, 4.0 * math.pi], []),
        ("interval-canonical", interval, canonical_measure(interval), 40.0, []),
        ("cubic30-poly", cubic, cubic_mu, 40.0 / total_length(cubic), []),
        # B_e divides by sin(gamma L_e) = 6.3e-4 on whole edges; nearer a
        # pole the golden plan takes over
        ("near-pole-whole", *near_pole_path(2e-4), []),
        ("near-pole-golden", *near_pole_path(5e-5), []),
        # a simple eigenfunction whose four largest coefficients tie at
        # sqrt(3), and a double one whose probe pairing is singular
        ("tetrahedron-const", tet, poly_shaped_measure(tet, "const"), 20.0, [six_pi ** 2]),
        ("tetrahedron-dx", tet, lebesgue_measure(tet, normalize=True), 20.0, [six_pi ** 2]),
    ]


@pytest.fixture
def perfbench_path(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench"))


@pytest.mark.usefixtures("perfbench_path")
@pytest.mark.parametrize("case", range(9))
def test_eigenfunctions_match_the_svd_route(case):
    # B's null vectors give the coefficients of M's SVD (the former route),
    # to 1e-12 of the norm of each coefficient vector, on the golden
    # plan (atoms, the dodecahedron's multiplicities up to 10, the circle
    # and the interval at their poles, a root 5e-5 from a pole) and on whole
    # edges (a polynomial measure on a random cubic graph, a root 2e-4 from
    # a pole).  At an eigenvalue where rounding picks the basis, the two
    # span the same eigenspace
    _, graph, mu, top, ill_posed = svd_route_cases()[case]
    gammas = top if isinstance(top, list) else \
        [math.sqrt(p.eigenvalue) for p in find_eigenvalues(graph, mu, top)]
    assert gammas
    for gamma in gammas:
        got, want = (np.array([np.append(f.ab, f.constant) for f in pair.eigenfunctions])
                     for pair in (eigenfunctions_at(graph, mu, gamma),
                                  oracles.svd_eigenpair(graph, mu, gamma)))
        assert got.shape == want.shape
        if any(gamma * gamma == pytest.approx(lam, rel=1e-9) for lam in ill_posed):
            span = np.linalg.qr(want.T)[0]
            off = got.T - span @ (span.T @ got.T)
            assert np.max(np.linalg.norm(off, axis=0) / np.linalg.norm(got, axis=1)) <= 1e-12
        else:
            err = np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)
            assert err.max() <= 1e-12, gamma


def test_off_scan_eigenfunctions_beside_a_whole_edge_pole():
    # at gamma = 2 pi on a fresh problem, whose root lies 1e-6 to 1e-2
    # relative above a pole of e1: the count's rise across gamma (1 -+
    # DEFAULT_ROOT_TOL) is read on the golden plan (the whole edges misread
    # it at 30 of these 81 offsets), and the eigenfunction is that of the SVD
    # route to 1e-11 of the norm of its coefficient vector
    for offset in np.geomspace(1e-6, 1e-2, 81):
        graph, mu, (gamma,) = near_pole_path(float(offset))
        pair = eigenfunctions_at(graph, mu, gamma)
        assert pair.multiplicity == 1, offset
        got, want = (np.append(p.eigenfunctions[0].ab, p.eigenfunctions[0].constant)
                     for p in (pair, oracles.svd_eigenpair(graph, mu, gamma)))
        assert np.linalg.norm(got - want) <= 1e-11 * np.linalg.norm(want), offset


def atom_only_circle(beta=1.0):
    """Atoms of 1/2 at the two vertices of the circle scaled by beta: M's
    integral row vanishes at each triple root and not at any simple one."""
    circle = scale_graph(builtin_graph("circle"), beta)
    return circle, Measure(circle, [(circle.point_at_vertex(v), 0.5) for v in circle.vertices],
                           {})


@pytest.mark.parametrize("name,kind", [(name, kind) for name in BUILTIN_NAMES
                                       for kind in ("dx", "canonical")] + [("circle", "atoms")])
def test_nullspace_dimension_is_the_multiplicity(name, kind):
    # at each root below gamma = 60 the nullspace of M has the root's
    # multiplicity, and at each midpoint between roots none; the interval's
    # canonical measure is atom-only, and its integral row vanishes at each
    # double root, so a matrix with a zero row goes through the rank decision
    if kind == "atoms":
        graph, mu = atom_only_circle()
    else:
        graph = builtin_graph(name)
        mu = table_measures(graph)[kind == "canonical"]
    problem = SpectralProblem(graph, mu)
    pairs = find_eigenvalues(graph, mu, 60.0)
    roots = [math.sqrt(p.eigenvalue) for p in pairs]
    unit = np.append(np.ones(problem.size - 1), total_length(problem.graph))
    vanishes = 0
    for gamma, want in [*zip(roots, (p.multiplicity for p in pairs)),
                        *((0.5 * (a + b), 0) for a, b in zip(roots, roots[1:]))]:
        # the integral row with C in units of ell, as the rank decision reads it
        vanishes += np.max(np.abs(problem._assemble(gamma)[-1] * unit)) <= DEFAULT_RANK_TOL
        assert len(problem.nullspace(gamma)) == want, gamma
    if (name, kind) in {("interval", "canonical"), ("circle", "atoms")}:
        assert 0 < vanishes < 2 * len(roots) - 1


def test_default_floor_scales_with_length():
    # up to gamma ell = 40, with the default floor, the multiplicities and
    # lambda beta^2 at each beta match beta = 1, to 1e-12 (1e-13 for the
    # tetrahedron under dx-normalized): the built-ins and a random cubic
    # graph (m = 30, ell about 36) under dx-normalized and canonical, and the
    # atom-only circle
    base = {name: builtin_graph(name) for name in BUILTIN_NAMES}
    base["cubic"] = random_cubic(3, 30)

    def cases(beta):  # ((name, kind), graph, mu) at scale beta
        for name, graph in base.items():
            graph = scale_graph(graph, beta)
            yield (name, "dx"), graph, lebesgue_measure(graph, normalize=True)
            yield (name, "canonical"), graph, canonical_measure(graph)
        yield ("circle", "atoms"), *atom_only_circle(beta)

    def spectrum(graph, mu, beta):
        pairs = find_eigenvalues(graph, mu, 40.0 / total_length(graph))
        return [p.multiplicity for p in pairs], np.array([p.eigenvalue for p in pairs]) * beta**2

    want = {case: spectrum(graph, mu, 1.0) for case, graph, mu in cases(1.0)}
    assert want["tetrahedron", "dx"][0] == [3, 2, 3, 4]
    for beta in (1e-6, 1e-3, 1e3, 1e5, 1e6, 1e7, 1e8, 1e10):
        for case, graph, mu in cases(beta):
            mults, lams = spectrum(graph, mu, beta)
            assert mults == want[case][0], (case, beta)
            np.testing.assert_allclose(lams, want[case][1], atol=0.0, err_msg=f"{case} {beta}",
                                       rtol=1e-13 if case == ("tetrahedron", "dx") else 1e-12)


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


def test_a_positive_count_at_the_default_floor_raises(interval):
    # 1e7 delta_a + (1 - 1e7) delta_b has its first root at gamma of about
    # 1.00000005e-7, below the default floor 1e-6 / ell, where the count is
    # already 1: a scan from there dropped that root without a word
    a = 1e7
    mu = Measure(interval, [(interval.point_at_vertex("a"), a),
                            (interval.point_at_vertex("b"), 1.0 - a)])
    with pytest.raises(NumericError, match=r"count is already 1 at the default "
                                           r"gamma_floor=1e-06"):
        find_eigenvalues(interval, mu, 30.0)
    # a given floor asks for the window above it, even at the default's value
    assert len(find_eigenvalues(interval, mu, 30.0, gamma_floor=1e-6)) == 8
    pairs = find_eigenvalues(interval, mu, 30.0, gamma_floor=1e-12)
    assert len(pairs) == 9
    assert math.sqrt(pairs[0].eigenvalue) == pytest.approx(1.00000005e-7, rel=1e-7)


def signed_secular_det(gamma, a):
    """det M(gamma) on the interval with a delta_a + (1 - a) delta_b, in
    mpmath: A cos + B sin per edge, C the Lebesgue integral, and the rows
    derivative@a, derivative@b and integral of SpectralProblem."""
    M = mpmath.matrix([[0, gamma, -gamma * gamma * a],
                       [gamma * mpmath.sin(gamma), -gamma * mpmath.cos(gamma),
                        -gamma * gamma * (1 - a)],
                       [a + (1 - a) * mpmath.cos(gamma), (1 - a) * mpmath.sin(gamma), 0]])
    return mpmath.det(M)


# the simple eigenvalues below gamma = 30 on the interval with a delta_a +
# (1 - a) delta_b: the roots of signed_secular_det at 60 digits, rounded
# once; the first root lies below the default floor 1e-6 where a = -1e6 and
# a = 1e7, and the floor check raises there
FLOOR_RAISES = "the eigenvalue count is already 1 at the default gamma_floor=1e-06;"
SIGNED_SPECTRA = {
    1e2: [0.000101005849926435, 39.352224491201305, 39.604812729213414, 157.66118318526756,
          158.16635966129178, 354.92697708804866, 355.684741802085, 631.1496061995447,
          632.1599591515931],
    1e4: [1.0001000058335e-08, 39.47716091446305, 39.47967431425382, 157.91115702763997,
          157.91618382722152, 355.30198834953177, 355.30952854890404, 631.6496548801384,
          631.6597084793015],
    1e6: [1.0000010000005834e-12, 39.47840503798154, 39.47843017073533, 157.91364528467693,
          157.91369555018454, 355.3057207400872, 355.3057961383486, 631.6546314042124,
          631.6547319352276],
    -1e6: [9.999990000005832e-13, 39.4784050379941, 39.47843017072277, 157.91364528470208,
           157.9136955501594, 355.3057207401249, 355.3057961383109, 631.6546314042627,
           631.6547319351773],
    1e7: [1.0000001000000058e-14, 39.47841634772032, 39.478418860994566, 157.9136679041555,
          157.913672930704, 355.30575466930554, 355.3057622091283, 631.6546766431704,
          631.6546866962675],
}


# the gammas of the count's reference: 41 across 1e-4 relative of 1 / |a|,
# where the first root lies, and 21 across [18.8495559, 18.849556], about
# 6 pi; with a = 1e8 and 1e9, whose roots beside the pole 6 pi are 1e-8 and
# 1e-9 away, 241 more across 6 pi +- 3e-8, float(6 pi) among them
def signed_count_gammas(a):
    grids = [np.linspace(1.0 - 1e-4, 1.0 + 1e-4, 41) / abs(a),
             np.linspace(18.8495559, 18.849556, 21)]
    if abs(a) >= 1e8:
        grids.append(6.0 * math.pi + np.linspace(-3e-8, 3e-8, 241))
    return np.concatenate(grids)


@pytest.mark.parametrize("a", [1e2, 1e6, -1e6, 1e8, 1e9])
def test_count_of_strongly_signed_measures_matches_mpmath(interval, a):
    # the interval with a delta_a + (1 - a) delta_b against the 60-digit
    # count; the count without the split basis and its scaling was wrong at
    # 87 of the 310 gammas of the first two grids.  A gamma within 1e-15
    # relative of a root, where rounding decides, is left out: 6 pi +- 1 / a
    # on the third grid (6 pi + 1e-8 is 2.3e-18 above a root where a = 1e8)
    masses = {"a": a, "b": 1.0 - a}
    mu = Measure(interval, [(interval.point_at_vertex(v), m) for v, m in masses.items()])
    gammas = [g for g in signed_count_gammas(a).tolist()
              if oracles.atom_count(interval, masses, g * (1.0 - 1e-15))
              == oracles.atom_count(interval, masses, g * (1.0 + 1e-15))]
    assert len(gammas) >= len(signed_count_gammas(a)) - 2
    want = [oracles.atom_count(interval, masses, g) for g in gammas]
    assert SpectralProblem(interval, mu).count(np.array(gammas)) == want


def test_count_beside_a_tetrahedron_pole_matches_mpmath(tetrahedron):
    # 1e9 delta_u + (1 - 1e9) delta_v at the ends of e1, across 6 pi +- 3e-8:
    # a triple root at the pole 6 pi of every edge
    e1 = tetrahedron.edges[0]
    masses = {e1.u: 1e9, e1.v: 1.0 - 1e9}
    mu = Measure(tetrahedron, [(tetrahedron.point_at_vertex(v), m) for v, m in masses.items()])
    gammas = 6.0 * math.pi + np.linspace(-3e-8, 3e-8, 61)
    want = [oracles.atom_count(tetrahedron, masses, g) for g in gammas]
    assert SpectralProblem(tetrahedron, mu).count(gammas) == want
    assert (want[0], want[-1]) == (3, 6)
    pairs = find_eigenvalues(tetrahedron, mu, 30.0, gamma_floor=1e-12)
    assert [p.multiplicity for p in pairs] == [1, 2, 3, 2]
    assert math.sqrt(pairs[2].eigenvalue) == pytest.approx(6.0 * math.pi, rel=1e-13)


@pytest.mark.parametrize("a", [1e8, 1e9])
def test_close_roots_beside_a_pole_are_all_found(interval, a):
    # nine simple roots below gamma = 30, two of them 1 / a either side of
    # the pole 6 pi; the scan finds all nine or raises, never fewer
    mu = Measure(interval, [(interval.point_at_vertex("a"), a),
                            (interval.point_at_vertex("b"), 1.0 - a)])
    pairs = find_eigenvalues(interval, mu, 30.0, gamma_floor=1e-12)
    assert [p.multiplicity for p in pairs] == [1] * 9
    gammas = np.sqrt([p.eigenvalue for p in pairs])
    near = gammas[np.abs(gammas - 6.0 * math.pi) < 1e-6]
    np.testing.assert_allclose(near, 6.0 * math.pi + np.array([-1.0, 1.0]) / a, rtol=1e-13)


def test_signed_spectra_are_the_secular_roots():
    # each pinned eigenvalue is a root of the mpmath determinant: it changes
    # sign across 1e-14 relative of gamma either side
    mpmath.mp.dps = 60
    try:
        for a, lams in SIGNED_SPECTRA.items():
            for lam in lams:
                gamma = mpmath.sqrt(mpmath.mpf(lam))
                ends = [signed_secular_det(gamma * (1 + s * mpmath.mpf("1e-14")), a)
                        for s in (-1, 1)]
                assert ends[0] * ends[1] < 0, (a, lam)
    finally:
        mpmath.mp.dps = 15


@pytest.mark.parametrize("floor", [None, 1e-12], ids=["default-floor", "floor-1e-12"])
@pytest.mark.parametrize("a", sorted(SIGNED_SPECTRA))
def test_strongly_signed_measures_keep_their_spectra(interval, a, floor):
    # all nine roots, the first from gamma = 1e-7 to 1e-4, to 2e-13 of the
    # 60-digit ones, from either floor where the first lies above it
    mu = Measure(interval, [(interval.point_at_vertex("a"), a),
                            (interval.point_at_vertex("b"), 1.0 - a)])
    if floor is None and SIGNED_SPECTRA[a][0] < 1e-12:
        with pytest.raises(NumericError, match=FLOOR_RAISES):
            find_eigenvalues(interval, mu, 30.0)
        return
    pairs = find_eigenvalues(interval, mu, 30.0, gamma_floor=floor)
    assert_spectrum(pairs, [(lam, 1) for lam in SIGNED_SPECTRA[a]], rel=2e-13)


@pytest.mark.parametrize("kind", ["dx-normalized", "canonical"])
@pytest.mark.parametrize("name", ["interval", "circle", "tetrahedron", "petersen",
                                  "dodecahedron"])
def test_trace_lies_in_its_certified_interval(name, kind):
    """Tr(phi_mu) = sum_n 1 / lambda_n, the diagonal of the eigenfunction
    expansion of g_mu, against the scan up to Gamma = 2000 / ell.

    With N the count and E(gamma) = N(gamma) - ell gamma / pi, Stieltjes
    integration of the tail gives sum over gamma_n > Gamma of gamma_n^-2 =
    ell / (pi Gamma) - E(Gamma) / Gamma^2 + 2 int_Gamma^inf E gamma^-3.  On
    whole edges N = sum_e floor(gamma L_e / pi) + #pos(B) - 1 with 0 <=
    #pos(B) <= n + 1, so -(m + 1) < E <= n, and the integral lies in
    (-(m + 1), n] / Gamma^2.  So Tr lies in P + ell / (pi Gamma) -
    E(Gamma) / Gamma^2 + (-(m + 1), n] / Gamma^2, P the partial sum up to
    Gamma, E(Gamma) exact from the count; the slack is for rounding only.
    A scan that drops its first root leaves the interval.
    """
    graph = builtin_graph(name)
    mu = lebesgue_measure(graph, normalize=True) if kind == "dx-normalized" \
        else canonical_measure(graph)
    ell, n, m = total_length(graph), len(graph.vertices), len(graph.edges)
    top = 2000.0 / ell
    pairs = find_eigenvalues(graph, mu, top)
    count = spectral._problem(graph, mu).count(top)
    assert count == sum(p.multiplicity for p in pairs)
    centre = math.fsum(p.multiplicity / p.eigenvalue for p in pairs) \
        + ell / (math.pi * top) - (count - ell * top / math.pi) / top ** 2
    trace = trace_of_phi(build_green(graph, mu))
    slack = 1e-12 * trace
    assert centre - (m + 1) / top ** 2 - slack < trace <= centre + n / top ** 2 + slack


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


def residuals(graph, mu, pair, samples_per_edge=5):
    """The worst continuity, derivative-balance, measure-integral and
    operator residuals over the functions of an eigenpair."""
    problem = spectral._problem(graph, mu)
    continuity, derivative = np.max([oracles.vertex_residuals(problem, f)
                                     for f in pair.eigenfunctions], axis=0)
    integral = max(abs(problem.mu_integral(f)) for f in pair.eigenfunctions)
    return (continuity, derivative, integral,
            oracles.operator_residual(graph, mu, pair, samples_per_edge))


def test_eigenpair_invariants_circle(circle):
    dx = lebesgue_measure(circle)
    funcs, lams = [], []
    for n in (1, 2):
        pair = eigenfunctions_at(circle, dx, 2 * math.pi * n)
        assert pair.multiplicity == 2
        continuity, derivative, integral, operator = residuals(circle, dx, pair)
        assert continuity < 1e-9
        assert derivative < 1e-9
        assert integral < 1e-9
        assert operator < 1e-13
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
    np.testing.assert_allclose(problem._gram(np.array([gamma]), np.array([basis]))[0],
                               pairwise, rtol=0.0, atol=1e-14)


def test_residuals_interior_atom_and_linear_densities(tetrahedron):
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
        continuity, derivative, integral, operator = residuals(
            tetrahedron, mu, eigenfunctions_at(tetrahedron, mu, math.sqrt(p.eigenvalue)))
        assert continuity < 1e-13
        assert derivative < 1e-12
        assert integral < 1e-13
        assert operator < 1e-15


def test_mercer_partial_sum_requires_functions(interval):
    # find_eigenvalues' pairs carry no functions: summing them would drop
    # their terms without a word
    dx = lebesgue_measure(interval)
    bare = find_eigenvalues(interval, dx, 10.0)
    x = interval.point("e1", 0.25)
    assert len(bare) == 3
    for pairs, named in ((bare, bare[0]), ([eigenfunctions_at(
            interval, dx, math.sqrt(bare[0].eigenvalue)), bare[1]], bare[1])):
        with pytest.raises(ValidationError) as raised:
            mercer_partial_sum(pairs, x, x)
        assert repr(named.eigenvalue) in str(raised.value)


def test_constant_function_is_not_an_eigenfunction(interval):
    # f = 1 written in basis form; its integral against a mass-one measure
    # is 1, so the defining orthogonality condition fails
    dx = lebesgue_measure(interval)
    problem = SpectralProblem(interval, dx)
    one = EdgeBasisSolution(1.0, {"e1": 0}, np.zeros((1, 2)), 1.0, np.ones((1, 1)))
    assert problem.mu_integral(one) == pytest.approx(1.0, rel=1e-12)


# ------------------------------------ one problem per (graph, measure)

@pytest.mark.parametrize("case", ["petersen", "paired", "cube-poly"])
def test_one_problem_per_graph_and_measure(monkeypatch, case):
    # find_eigenvalues then eigenfunctions_at at every root build one problem
    # and take the null vectors of B once per root, counted in gammas (the
    # first eigenfunctions_at stacks all the scan's roots into one call per
    # plan); new objects get a fresh problem, whose stacks of one give the
    # scan's functions bit for bit, under polynomial densities too (the
    # pair form's 3 x 3 einsum then sums over a root axis)
    def make_graph():  # Petersen has a 5-fold root, the other a close pair
        return build_graph([f"v{i}" for i in range(12)], PAIRED_ROOTS_EDGES) \
            if case == "paired" else builtin_graph(case.partition("-")[0])

    def make_measure(graph):  # cube-poly: spectrum's poly measure, an interior atom
        return lebesgue_measure(graph, normalize=True) if case == "petersen" else \
            poly_shaped_measure(graph, "poly" if case == "cube-poly" else "const")

    init, null_vectors = SpectralProblem.__init__, spectral._CountPlan.null_vectors
    built, calls = [], []

    def counted_init(self, graph, mu):
        built.append(self)
        init(self, graph, mu)

    def counted_null_vectors(self, gs):
        calls.extend(gs.tolist())
        return null_vectors(self, gs)

    monkeypatch.setattr(SpectralProblem, "__init__", counted_init)
    monkeypatch.setattr(spectral._CountPlan, "null_vectors", counted_null_vectors)
    graph = make_graph()
    mu = make_measure(graph)
    pairs = find_eigenvalues(graph, mu, 40.0 / total_length(graph))
    funcs = [eigenfunctions_at(graph, mu, math.sqrt(p.eigenvalue)) for p in pairs]
    assert (len(built), len(calls)) == (1, len(pairs))
    assert [f.multiplicity for f in funcs] == [p.multiplicity for p in pairs]
    assert max(p.multiplicity for p in pairs) == (1 if case == "paired" else 5)

    # a new measure object: a fresh problem, whose bases are computed afresh
    # and give the same functions bit for bit
    mu2 = make_measure(graph)
    for p, pair in zip(pairs, funcs):
        again = eigenfunctions_at(graph, mu2, math.sqrt(p.eigenvalue))
        for f, g in zip(pair.eigenfunctions, again.eigenfunctions):
            assert np.array_equal(f.ab, g.ab) and f.constant == g.constant
            assert np.array_equal(f.h, g.h)
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


def test_mercer_sums_match_the_loops(tetrahedron, interval):
    for graph, mu, gamma_max, cuts in _split_cases(tetrahedron, interval):
        pairs = [eigenfunctions_at(graph, mu, math.sqrt(p.eigenvalue))
                 for p in find_eigenvalues(graph, mu, gamma_max)]
        pts = _edge_points(graph, 4) + cuts
        for x, y in zip(pts, pts[::-1]):
            assert mercer_partial_sum(pairs, x, y) == pytest.approx(
                oracles.mercer_sum(pairs, x, y), rel=1e-15, abs=0.0)


def test_mercer_sum_is_the_per_function_sum(tetrahedron):
    # one array pass per working graph gives the bits of the former sum, one
    # function read at a time: for one problem's pairs, for an interior atom's
    # (the caller's points remapped), and for a list that mixes the two
    dx = lebesgue_measure(tetrahedron, normalize=True)
    atom = interior_atom_measure(tetrahedron)
    one, remapped = ([eigenfunctions_at(tetrahedron, mu, math.sqrt(p.eigenvalue))
                      for p in find_eigenvalues(tetrahedron, mu, 40.0)] for mu in (dx, atom))
    mixed = [pair for pairs in zip(one, remapped[::-1]) for pair in pairs]
    pts = _edge_points(tetrahedron, 3) + [tetrahedron.point("e1", 0.05)]
    for pairs in (one, remapped, mixed):
        assert sum(p.multiplicity for p in pairs) >= 12
        for x, y in zip(pts, pts[::-1]):
            assert mercer_partial_sum(pairs, x, y) == oracles.mercer_function_loop(pairs, x, y)


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
    # a scan's bases come from one stacked eigh per plan; a cached basis
    # must not keep the whole stack of eigenvectors alive
    graph = builtin_graph("dodecahedron")
    mu = lebesgue_measure(graph, normalize=True)
    pairs = find_eigenvalues(graph, mu, 60.0)
    eigenfunctions_at(graph, mu, math.sqrt(pairs[0].eigenvalue))
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
