"""Measures, canonical measure, integration, CPA test functions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import lollipop, random_point
from metragraph import (
    CPAFunction,
    Measure,
    ValidationError,
    builtin_graph,
    canonical_measure,
    dirac,
    lebesgue_measure,
    subdivide_at,
)
from metragraph.circuit import EdgeTable
from metragraph.measure import (
    integrate_polys_against,
    load_measure,
    measure_from_json,
    measure_summary,
    measure_to_json,
    remap_measure,
    resolve_measure,
)


def test_atoms_merge_by_point_identity():
    g = builtin_graph("tetrahedron")
    # the same vertex reached through two different edge endpoints
    mu = Measure(g, [(g.point("e1", 0.0), 0.25), (g.point_at_vertex("a"), 0.75)])
    assert mu.atom_count() == 1
    assert mu.total_mass() == pytest.approx(1.0)


def test_mass_variation_and_algebra():
    g = builtin_graph("interval")
    mu = Measure(g, [(g.point("e1", 0.25), -0.5)], {"e1": [1.0, -2.0]})
    assert mu.total_mass() == pytest.approx(-0.5)  # -0.5 + (1 - 1)
    assert mu.total_variation() == pytest.approx(1.0)  # 0.5 + int |1 - 2t|
    nu = dirac(g, g.point("e1", 0.25), 0.5)
    combo = 2.0 * mu + nu
    assert combo.total_mass() == pytest.approx(-0.5)
    assert (mu - mu).total_mass() == pytest.approx(0.0)
    assert (-mu).total_mass() == pytest.approx(0.5)
    assert measure_summary(nu) == (0.5, 0.5, 1)


@pytest.mark.parametrize("coeffs", [[1.0, -2.0], [1.0, -3.0], [0.21, -1.0, 1.0]])
@pytest.mark.parametrize("c", [1j, 1 + 1j, np.exp(0.3j)])
def test_complex_density_variation_scales_with_the_factor(coeffs, c):
    # |c p| has kinks at the real zeros of p; one smooth rule over the edge
    # read TV(1j (1 - 2t) dx) as 0.50069 instead of 0.5
    g = builtin_graph("interval")
    nu = Measure(g, (), {"e1": coeffs})
    cnu = Measure(g, (), {"e1": c * np.array(coeffs)})
    assert not cnu.is_real()
    assert cnu.total_variation() == pytest.approx(abs(c) * nu.total_variation(), rel=1e-12)


def test_require_reference():
    g = builtin_graph("interval")
    assert lebesgue_measure(g).require_reference() is not None  # length 1
    with pytest.raises(ValidationError):
        dirac(g, g.point("e1", 0.5), 2.0).require_reference()
    with pytest.raises(ValidationError):
        Measure(g, [(g.point("e1", 0.0), 1.0 + 0.5j)]).require_reference()


def test_cross_graph_algebra_rejected():
    g1 = builtin_graph("interval")
    g2 = builtin_graph("interval")
    with pytest.raises(ValidationError):
        lebesgue_measure(g1) + lebesgue_measure(g2)


def test_canonical_interval_and_circle():
    g = builtin_graph("interval")
    mu = canonical_measure(g)
    assert mu.densities == {}
    assert sorted((p.edge, p.offset, m) for p, m in mu.atoms) == \
        [("e1", 0.0, 0.5), ("e1", 1.0, 0.5)]
    circ = builtin_graph("circle")
    nu = canonical_measure(circ)
    assert nu.atoms == []  # valence-2 points carry no mass
    for eid in ("e1.1", "e1.2"):
        assert nu.densities[eid] == pytest.approx([1.0])


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_canonical_banana(n):
    g = builtin_graph(f"banana:{n}")
    mu = canonical_measure(g)
    masses = {g.vertex_of(p): m for p, m in mu.atoms}
    if n == 2:
        assert masses == {}  # zero vertex masses are dropped
    else:
        assert masses == {"a": pytest.approx(1 - n / 2),
                          "b": pytest.approx(1 - n / 2)}
    for e in g.edges:
        assert mu.densities[e.id] == pytest.approx([float(n - 1)])
    assert mu.total_mass() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "name",
    ["tetrahedron", "k5", "k33", "petersen", "cube", "octahedron",
     "dodecahedron", "icosahedron"],
)
def test_canonical_unit_mass(name):
    mu = canonical_measure(builtin_graph(name))
    assert mu.total_mass() == pytest.approx(1.0, abs=1e-12)
    assert all(m < 0 for _, m in mu.atoms)  # valence > 2 everywhere


def test_integrate_polys_against_exact():
    g = builtin_graph("interval")
    mu = Measure(g, [(g.point("e1", 1.0), 3.0)], {"e1": [1.0, 1.0]})
    polys = EdgeTable(g, np.array([[0.0, 0.0, 1.0]]))  # t^2
    # 3 * 1 + int t^2 (1 + t) = 3 + 1/3 + 1/4
    assert integrate_polys_against(mu, polys) == pytest.approx(
        3.0 + 1.0 / 3.0 + 0.25, abs=1e-14
    )


def test_measure_json_roundtrip(tmp_path):
    g = builtin_graph("banana:2")
    mu = Measure(g, [(g.point("e1", 0.1), 0.25)], {"e2": [0.5, 1.0]})
    data = measure_to_json(mu)
    back = measure_from_json(g, data)
    assert measure_summary(back) == pytest.approx(measure_summary(mu))
    path = tmp_path / "mu.json"
    path.write_text(__import__("json").dumps(data), encoding="utf-8")
    assert load_measure(g, str(path)).total_mass() == pytest.approx(
        mu.total_mass()
    )
    with pytest.raises(ValidationError):
        measure_from_json(g, {"atoms": [{"mass": 1.0}]})


def test_resolve_measure_specs():
    g = builtin_graph("banana:3")
    assert resolve_measure(g, "dx").total_mass() == pytest.approx(1.0)
    assert resolve_measure(g, "dx-normalized").total_mass() == pytest.approx(1.0)
    assert resolve_measure(g, "canonical").atom_count() == 2
    with pytest.raises(OSError):
        resolve_measure(g, "/nonexistent/measure.json")


@given(t=st.integers(1, 9), c0=st.floats(0.1, 2), c1=st.floats(-2, 2))
@settings(max_examples=30, deadline=None)
def test_remap_preserves_mass_and_values(t, c0, c1):
    g = builtin_graph("interval")
    mu = Measure(g, [(g.point("e1", t / 10.0), 0.5)], {"e1": [c0, c1]})
    g2, vname, remap = subdivide_at(g, g.point("e1", t / 10.0))
    mu2 = remap_measure(mu, g2, remap)
    assert mu2.total_mass() == pytest.approx(mu.total_mass(), abs=1e-12)
    # the atom lands on the new vertex
    (p, m), = mu2.atoms
    assert g2.vertex_of(p) == vname and m == 0.5
    # density values agree in the global coordinate
    poly = np.polynomial.polynomial.polyval
    for s in (t / 20.0, t / 10.0 + (1 - t / 10.0) / 3.0):
        eid = "e1.1" if s <= t / 10.0 else "e1.2"
        local = s if eid == "e1.1" else s - t / 10.0
        assert poly(local, mu2.densities[eid]) == pytest.approx(
            poly(s, [c0, c1]), abs=1e-12
        )


def shaped_measures(graph, rng, count):
    """Measures with real or complex masses, atoms at offset 0, at L and
    inside edges, and ragged, trailing-zero, complex or no densities."""
    out = []
    for trial in range(count):
        atoms = []
        for _ in range(int(rng.integers(0, 6))):
            e = graph.edges[int(rng.integers(len(graph.edges)))]
            t = [0.0, e.length, float(rng.uniform(0.0, e.length))][int(rng.integers(3))]
            m = complex(*rng.normal(size=2)) if trial % 3 == 0 else float(rng.normal())
            atoms.append((graph.point(e.id, t), m))
        densities = {}
        edges = int(rng.integers(0, 4)) if trial % 4 else 0  # no density every 4th
        for k in rng.permutation(len(graph.edges))[:edges]:
            c = rng.normal(size=int(rng.integers(1, 5)))
            if rng.random() < 0.3:
                c = np.concatenate((c, np.zeros(int(rng.integers(1, 3)))))
            if trial % 5 == 0:
                c = c + 1j * rng.normal(size=c.size)
            densities[graph.edges[k].id] = c
        out.append(Measure(graph, atoms, densities))
    return out


@pytest.mark.parametrize("name", ["interval", "circle", "tetrahedron", "petersen"])
def test_arrays_match_atoms_and_densities(name, rng):
    g = builtin_graph(name)
    for mu in shaped_measures(g, rng, 40):
        rows, at, mass, D = mu.arrays
        assert [g.edges[k].id for k in rows] == [p.edge for p, _ in mu.atoms]
        assert at.tolist() == [p.offset for p, _ in mu.atoms]
        assert mass.tolist() == [m for _, m in mu.atoms]
        width = max((c.size for c in mu.densities.values()), default=1)
        assert D.shape == (len(g.edges), width)
        for k, e in enumerate(g.edges):
            c = mu.density(e.id)
            assert D[k, :c.size].tolist() == c.tolist() and not D[k, c.size:].any()
        complex_parts = any(isinstance(m, complex) for _, m in mu.atoms) or any(
            np.iscomplexobj(c) for c in mu.densities.values())
        assert np.iscomplexobj(D) == np.iscomplexobj(mass) == complex_parts
        assert mu.is_real() == (not complex_parts)


DENSITY_CASES = {
    "ragged": {"t2": [1.0, 2.0, 3.0], "s1": [4.0], "t1": [0.5, -1.0]},
    "trailing zeros": {"t1": [1.0, 0.0, 0.0], "s2": [0.0, 2.0, 0.0, 0.0], "t3": [-0.0, 1.0]},
    "all-zero rows": {"t1": [0.0] * 5, "s1": [1.0], "t3": [], "s2": [0j, 0j, 0j]},
    "only zero rows": {"t1": [0.0], "s2": [0.0, -0.0]},
    "complex": {"t1": [1.0 + 2.0j, 0.5], "s1": [3.0j]},
    "real beside complex": {"t1": [1.0, 2.0], "s2": [1.0j, 0.0, 0.0], "t2": [0.25],
                            "s1": np.array([1, 2])},
    "scalars": {"t1": 2.0, "s2": np.float64(3.0), "t2": np.array(5.0), "s1": 1 + 1j,
                "t3": 0.0},
    "numpy arrays": {"t3": np.array([1.0, -0.0, 2.0]), "t1": np.arange(3),
                     "s2": np.array([True, False]), "s1": np.zeros(4),
                     "t2": np.array([0.5j, 1.0])},
    "atom-only (None)": None,  # no stacking pass: the m x 1 zero matrix
    "atom-only ({})": {},
}


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("case", DENSITY_CASES)
@pytest.mark.parametrize("complex_atom", [False, True])
def test_array_pass_matches_loop_oracle(case, complex_atom):
    # the padded-array build against the per-edge loop it replaced, on a
    # graph whose edge order is not its sorted edge-id order
    g = lollipop()
    atoms = [(g.point("t2", 0.1), 0.5), (g.point_at_vertex("d"), -1.5)]
    if complex_atom:
        atoms.append((g.point("s1", 0.05), 0.25 + 1.0j))
    mu = Measure(g, atoms, DENSITY_CASES[case])
    dens, arrays = oracles.measure_arrays(g, mu.atoms, DENSITY_CASES[case])
    assert list(mu.densities) == list(dens)
    for eid, c in dens.items():
        assert_same_bits(mu.densities[eid], c)
    for got, want in zip(mu.arrays, arrays, strict=True):
        assert_same_bits(got, want)


def test_unknown_density_edge_is_named():
    g = lollipop()
    for densities in ({"t1": [1.0], "nope": [1.0]}, {"zz": [0.0], "t1": [1.0], "aa": [2.0]}):
        with pytest.raises(ValidationError) as want:
            oracles.measure_arrays(g, [], densities)
        with pytest.raises(ValidationError) as got:
            Measure(g, [], densities)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("name", ["interval", "circle", "tetrahedron", "petersen"])
def test_total_mass_matches_per_edge_closed_form(name, rng):
    g = builtin_graph(name)
    for mu in shaped_measures(g, rng, 40):
        # atoms plus c_k L^(k+1) / (k+1) per density coefficient, summed exactly
        terms = [complex(m) for _, m in mu.atoms] + [
            complex(c) * (e.length ** (k + 1) / (k + 1))
            for e in g.edges for k, c in enumerate(mu.density(e.id))]
        want = complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))
        scale = math.fsum(abs(t) for t in terms)
        assert abs(complex(mu.total_mass()) - want) <= 1e-15 * scale


def test_cpa_function_basics():
    g = builtin_graph("interval")
    f = CPAFunction(g, {"a": 1.0, "b": 0.0})
    assert f.at_point(g.point("e1", 0.25)) == pytest.approx(0.75)
    assert f.dirichlet_energy() == pytest.approx(1.0)
    assert f.l2_norm_sq() == pytest.approx(1.0 / 3.0)
    pw = f.table()["e1"]
    assert pw(0.4) == pytest.approx(0.6)


@pytest.mark.parametrize("name", ["lollipop", "dodecahedron", "banana:3"])
def test_total_variation_matches_per_piece_loop(name, rng):
    # real densities of degree 0 to 4 that change sign, beside zero and
    # constant ones: bit-identical to the per-edge loop, edges in graph order
    g = lollipop() if name == "lollipop" else builtin_graph(name)
    for _ in range(4):
        dens = {e.id: rng.normal(size=k % 5 + 1) / e.length ** np.arange(k % 5 + 1)
                for k, e in enumerate(g.edges) if k % 7 != 3}
        dens[g.edges[0].id] = np.zeros(2)
        atoms = [(random_point(g, rng), float(rng.normal())) for _ in range(3)]
        for mu in (Measure(g, atoms, dens), canonical_measure(g)):
            want = math.fsum(abs(m) for _, m in mu.atoms)
            for e in g.edges:
                if e.id in mu.densities:
                    want += oracles.piecewise_abs_integral([0.0, e.length],
                                                           [mu.densities[e.id]])
            assert mu.total_variation() == want


def test_cpa_table_and_closed_forms(rng):
    g = lollipop()
    interior = {e.id: sorted((float(t), float(rng.normal()))
                             for t in rng.uniform(0.05, 0.95, k) * e.length)
                for k, e in enumerate(g.edges)}
    f = CPAFunction(g, {v: float(rng.normal()) for v in g.vertices}, interior)
    table = f.table()
    for _ in range(20):
        p = random_point(g, rng)
        assert table[p.edge](p.offset) == pytest.approx(f.at_point(p), abs=1e-14)
    # the squared L2 norm against a fine midpoint sum of f^2 on every segment
    want = 0.0
    for k, a, b, _, _ in zip(*f.segments):
        x = a + (b - a) * (np.arange(2000) + 0.5) / 2000
        want += np.sum(f.eval(g.edges[k].id, x) ** 2) * (b - a) / 2000
    assert f.l2_norm_sq() == pytest.approx(want, rel=1e-6)


def test_cpa_interior_nodes():
    g = builtin_graph("interval")
    f = CPAFunction(g, {"a": 0.0, "b": 0.0}, {"e1": [(0.5, 1.0)]})
    rows, a, b, fa, fb = f.segments
    assert list(a[1:]) == [0.5]
    assert f.at_point(g.point("e1", 0.25)) == pytest.approx(0.5)
    assert f.dirichlet_energy() == pytest.approx(2.0 * 2.0 * 0.5 * 2)
    assert list((fb - fa) / (b - a)) == pytest.approx([2.0, -2.0])
    with pytest.raises(ValidationError):
        CPAFunction(g, {}, {"e1": [(1.5, 1.0)]})


def test_cpa_hat_on_tetrahedron():
    g = builtin_graph("tetrahedron")
    f = CPAFunction.hat(g, "a")
    assert f.at_point(g.point_at_vertex("a")) == pytest.approx(1.0)
    # slope 6 on each of the three incident edges of length 1/6
    assert f.dirichlet_energy() == pytest.approx(3 * 36 / 6.0)
