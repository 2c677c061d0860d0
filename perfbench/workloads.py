"""The benchmark's four workloads.

Each function in ``WORKLOADS`` turns ``(seed, smoke)`` into one pass: a
fixed list of operations.  An operation's ``run`` is the timed call into
the library; ``check`` compares its result with an independent reference
(see ``oracle.py``) outside the timed region and returns a list of
problems, empty when the result is correct.  The library only sees inputs generated
from the seed.  ``smoke`` gives the same operations on minimal inputs.
"""

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional

import numpy as np

from metragraph import cli, circuit, graph_core, green, measure, spectral
from metragraph.numerics import NumericError

import oracle

TABLE_CSV = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tests", "data", "table.csv",
)
REL = 1e-9                  # relative tolerance of the two-route checks
SPECTRUM_GAMMA_ELL = 40.0   # spectrum scans gamma * total length up to this
# lambda * ell^2 below this is the known spurious root near the scan floor
# (seen up to 1.5e-6); genuine first roots here have lambda * ell^2 > 30
SPURIOUS_LAMBDA_ELL2 = 1e-2
PERTURB = 1.0 + 1e-6        # relative shift the self-test applies to a result


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], list]
    digest: Callable[[object], object] = repr
    # True when every problem of a result is the known spurious-root defect
    explain: Callable[[object], bool] = lambda result: False
    perturb: Optional[Callable[[object], object]] = None


def _close(got, want, scale):
    return abs(got - want) <= REL * scale


def _rng(seed, salt):
    return np.random.default_rng([seed, salt])


def _shuffled(rng, ops):
    return [ops[i] for i in rng.permutation(len(ops))]


# inputs -------------------------------------------------------------------

def _builtin_spec(name):
    g = graph_core.builtin_graph(name)
    return list(g.vertices), [tuple(e) for e in g.edges]


def random_cubic(rng, m, batch=64):
    """Simple connected cubic graph with m edges, lengths from U[0.5, 2].

    Stub pairings are drawn in batches and the first simple, connected one
    is kept, so the set-up work hardly depends on the seed.
    """
    n = 2 * m // 3
    stubs = np.tile(np.repeat(np.arange(n), 3), (batch, 1))
    while True:
        cand = rng.permuted(stubs, axis=1).reshape(batch, m, 2)
        lo, hi = cand.min(axis=2), cand.max(axis=2)
        codes = np.sort(lo * n + hi, axis=1)
        simple = np.all(lo != hi, axis=1) & np.all(np.diff(codes, axis=1) != 0, axis=1)
        pairs = next((p for p in cand[simple].tolist() if _connected(n, p)), None)
        if pairs is not None:
            break
    lengths = rng.uniform(0.5, 2.0, m)
    edges = [(f"e{k}", f"v{a}", f"v{b}", float(length))
             for k, ((a, b), length) in enumerate(zip(pairs, lengths))]
    return [f"v{i}" for i in range(n)], edges


def _connected(n, keys):
    adj = {i: [] for i in range(n)}
    for a, b in keys:
        adj[a].append(b)
        adj[b].append(a)
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _interior(rng, edges, count, exclude=()):
    """``count`` seeded interior points (edge id, offset) off the given edges."""
    pool = [e for e in edges if e[0] not in exclude]
    picks = rng.integers(len(pool), size=count)
    return [(pool[i][0], float(rng.uniform(0.1, 0.9)) * pool[i][3]) for i in picks]


def _spectrum_measure(edges, kind):
    """Positive unit measure: an atom of mass 1/4 inside the first edge plus
    densities on every edge, constant ('const') or 1 + t/L and 1 + (t/L)^2
    on alternate edges ('poly')."""
    atom_mass = 0.25
    atoms = [(edges[0][0], 0.3 * edges[0][3], atom_mass)]
    shapes = [np.ones(1)] if kind == "const" else [np.array([1.0, 1.0]),
                                                   np.array([1.0, 0.0, 1.0])]
    dens, mass = {}, 0.0
    for k, (eid, _, _, length) in enumerate(edges):
        shape = shapes[k % len(shapes)]
        powers = np.arange(len(shape))
        dens[eid] = shape / length ** powers
        mass += length * np.sum(shape / (powers + 1))
    return atoms, {eid: c * (1.0 - atom_mass) / mass for eid, c in dens.items()}


def _signed_measure(rng, edges):
    """Unit measure: three signed interior atoms of total mass 0 and the
    linear densities (1 + b_e (2t/L - 1)) / ell, negative where |b_e| > 1."""
    ell = sum(e[3] for e in edges)
    masses = rng.normal(0.0, 0.5, 3)
    masses -= masses.mean()
    idx = rng.choice(len(edges), 3, replace=False)
    atoms = [(edges[i][0], float(rng.uniform(0.2, 0.8)) * edges[i][3], float(m))
             for i, m in zip(idx, masses)]
    dens = {}
    for eid, _, _, length in edges:
        b = float(rng.uniform(-1.5, 1.5))
        dens[eid] = [(1.0 - b) / ell, 2.0 * b / (ell * length)]
    return atoms, dens


def _mass_zero(rng, edges, count):
    masses = rng.normal(size=count)
    masses -= masses.mean()
    return [(e, t, float(m)) for (e, t), m in zip(_interior(rng, edges, count), masses)]


def _measure(g, spec):
    atoms, dens = spec
    return measure.Measure(g, [(g.point(e, t), m) for e, t, m in atoms], dens)


def _points(g, specs):
    return [g.point(e, t) for e, t in specs]


# table --------------------------------------------------------------------

def table(seed, smoke):
    """The three computations of each ``metragraph reproduce-table`` row as
    separate ops, in seeded order: tau, and the first two eigenvalues under
    dx-normalized and under canonical measure.  A row as one op gave a pass
    only eight latency samples; three per row give the median and the tail
    several neighbours each."""
    with open(TABLE_CSV, encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    want = {row[0]: row for row in rows}
    names = ["tetrahedron"] if smoke else list(want)
    ops = []
    for n in names:
        ops.append(Op(f"tau/{n}", partial(_table_tau, n), partial(_check_cells, want[n][1:2]),
                      perturb=lambda cells: [cells[0] * PERTURB]))
        for kind, cols in (("dx", slice(2, 6)), ("canonical", slice(6, 10))):
            ops.append(Op(f"{kind}/{n}", partial(_table_spectrum, n, kind),
                          partial(_check_cells, want[n][cols]),
                          perturb=lambda cells: [cells[0] * PERTURB] + cells[1:]))
    return _shuffled(_rng(seed, 0), ops)


def _table_tau(name):
    return [green.tau_constant(graph_core.builtin_graph(name))]


def _table_spectrum(name, kind):
    g = graph_core.builtin_graph(name)
    mu = measure.canonical_measure(g) if kind == "canonical" else \
        measure.lebesgue_measure(g, normalize=True)
    pairs = spectral.find_eigenvalues(g, mu, cli.TABLE_GAMMA_MAX)
    return [pairs[0].eigenvalue, pairs[0].multiplicity, pairs[1].eigenvalue,
            pairs[1].multiplicity]


def _check_cells(want, cells):
    got = [format(v, ".12g") for v in cells]
    return [] if got == want else [f"{got} != table.csv {want}"]


# spectrum -----------------------------------------------------------------

@dataclass
class SpectrumResult:
    graph: object
    mu: object
    pairs: list
    funcs: list      # Eigenpair with eigenfunctions, or the NumericError raised
    points: list
    mercer: list     # diagonal Mercer partial sums at ``points``


# The spectrum workload's two cubic graphs (m = 30, lengths U[0.5, 2]) are
# draws 0 and 7 of one fixed stream of ``random_cubic``, the same for every
# seed.  Drawing them from the seed made a pass cost 17 to 24 s, and whether
# the spurious root (below) shows depends even on the order of the edges:
# it shows on about a third of such graphs and can double an op's cost.
# Draw 7 is the first of the stream on which it shows; draw 0 shows none.
SPECTRUM_CUBIC_DRAWS = (0, 7)


def spectrum(seed, smoke):
    """Each graph under a 'const' and a 'poly' measure, in seeded order,
    with seeded points for the Mercer sums."""
    rng = _rng(seed, 1)
    graphs = [(n, _builtin_spec(n)) for n in
              (["tetrahedron"] if smoke else ["tetrahedron", "cube", "petersen"])]
    if not smoke:
        stream = _rng(0, 1)
        draws = [random_cubic(stream, 30) for _ in range(max(SPECTRUM_CUBIC_DRAWS) + 1)]
        graphs += [(f"cubic30#{i}", draws[i]) for i in SPECTRUM_CUBIC_DRAWS]
    ops = []
    for name, gspec in graphs:
        for kind in ("const", "poly"):
            mspec = _spectrum_measure(gspec[1], kind)
            pts = _interior(rng, gspec[1], 3, exclude={a[0] for a in mspec[0]})
            ops.append(Op(f"{name}/{kind}", partial(_spectrum_run, gspec, mspec, pts),
                          partial(_spectrum_problems, drop_spurious=False),
                          digest=_spectrum_digest, explain=_spectrum_explain,
                          perturb=_spectrum_perturb))
    return _shuffled(rng, ops)


def _spectrum_run(gspec, mspec, pts):
    g = graph_core.build_graph(*gspec)
    mu = _measure(g, mspec)
    pairs = spectral.find_eigenvalues(g, mu, SPECTRUM_GAMMA_ELL / graph_core.total_length(g))
    funcs = []
    for p in pairs:
        try:
            funcs.append(spectral.eigenfunctions_at(g, mu, math.sqrt(p.eigenvalue)))
        except NumericError as exc:
            funcs.append(exc)
    good = [f for f in funcs if not isinstance(f, NumericError)]
    xs = _points(g, pts)
    return SpectrumResult(g, mu, pairs, funcs, xs,
                          [spectral.mercer_partial_sum(good, x, x) for x in xs])


def _spectrum_digest(res):
    return repr(([(p.eigenvalue, p.multiplicity) for p in res.pairs], res.mercer,
                 [str(f) for f in res.funcs if isinstance(f, NumericError)]))


def _spurious(res, lam):
    return lam * graph_core.total_length(res.graph) ** 2 < SPURIOUS_LAMBDA_ELL2


def _spectrum_problems(res, drop_spurious):
    """Each eigenspace orthonormal with Rayleigh quotient lambda (quadrature),
    sum mult/lambda <= Tr(phi_mu) and sum f_k(x)^2/lambda_k <= g_mu(x, x)."""
    problems = []
    work = spectral.SpectralProblem(res.graph, res.mu).graph
    edges = [(e.id, e.length) for e in work.edges]
    kept = [(p, f) for p, f in zip(res.pairs, res.funcs)
            if not (drop_spurious and _spurious(res, p.eigenvalue))]
    for p, f in kept:
        lam = p.eigenvalue
        if isinstance(f, NumericError):
            problems.append(f"eigenfunctions_at raised at lambda={lam:.6g}: {f}")
            continue
        if len(f.eigenfunctions) != p.multiplicity:
            problems.append(f"{len(f.eigenfunctions)} eigenfunctions at lambda={lam:.6g}, "
                            f"multiplicity {p.multiplicity}")
            continue
        l2, dirichlet = oracle.eigen_gram(edges, f.eigenfunctions)
        if not np.allclose(l2, np.eye(len(l2)), rtol=0.0, atol=1e-8):
            problems.append(f"eigenfunctions at lambda={lam:.6g} not orthonormal")
        elif not np.allclose(dirichlet, lam * l2, rtol=0.0, atol=1e-8 * lam):
            problems.append(f"Rayleigh quotients {np.diag(dirichlet)} != lambda={lam!r}")
    ev = green.build_green(res.graph, res.mu)
    trace = green.trace_of_phi(ev)
    partial_sum = math.fsum(p.multiplicity / p.eigenvalue for p, _ in kept)
    if not partial_sum <= trace * (1.0 + REL):
        problems.append(f"sum mult/lambda {partial_sum:.6g} > Tr(phi_mu) {trace:.6g}")
    funcs = [f for _, f in kept if not isinstance(f, NumericError)]
    for x, reported in zip(res.points, res.mercer):
        own = math.fsum(h.at_point(x) ** 2 / f.eigenvalue
                        for f in funcs for h in f.eigenfunctions)
        if not drop_spurious and not _close(reported, own, max(1.0, abs(own))):
            problems.append(f"mercer_partial_sum {reported!r} != {own!r}")
        gxx = ev.g(x, x)
        if not own <= gxx + REL * abs(gxx):
            problems.append(f"Mercer sum {own:.6g} > g_mu(x, x) {gxx:.6g}")
    return problems


def _spectrum_explain(res):
    poly = any(np.count_nonzero(np.atleast_1d(c)[1:]) for c in res.mu.densities.values())
    return (poly and any(_spurious(res, p.eigenvalue) for p in res.pairs)
            and not _spectrum_problems(res, drop_spurious=True))


def _spectrum_perturb(res):
    last = res.pairs[-1]
    pairs = res.pairs[:-1] + [replace(last, eigenvalue=last.eigenvalue * PERTURB)]
    return replace(res, pairs=pairs)


# potential ----------------------------------------------------------------

@dataclass
class PotentialResult:
    graph: object
    evaluators: list   # canonical, dx-normalized, signed
    tau: float
    traces: list


def potential(seed, smoke):
    """Green builds, tau and traces on seeded random cubic graphs.

    The median latency falls inside the twelve m = 30 samples and the tail
    on the middle one of the three m = 90 samples, not on a lone graph's
    sample: the cost of an m = 90 graph varies by about 15% with the seed."""
    rng = _rng(seed, 2)
    ops = []
    for m in ([6] if smoke else [30] * 12 + [90] * 3):
        gspec = random_cubic(rng, m)
        sig = _signed_measure(rng, gspec[1])
        pts = _interior(rng, gspec[1], 9)
        ops.append(Op(f"m{m}", partial(_potential_run, gspec, sig),
                      partial(_potential_check, pts),
                      digest=lambda res: repr((res.tau, res.traces)),
                      perturb=lambda res: replace(res, tau=res.tau * PERTURB)))
    return _shuffled(rng, ops)


def _potential_run(gspec, sig):
    g = graph_core.build_graph(*gspec)
    mus = (measure.canonical_measure(g), measure.lebesgue_measure(g, normalize=True),
           _measure(g, sig))
    evs = [green.build_green(g, mu) for mu in mus]
    return PotentialResult(g, evs, green.tau_constant(g),
                           [green.trace_of_phi(ev) for ev in evs])


def _potential_check(pts, res):
    """g_can(x, y) = tau - r(x, y)/2, Tr(phi_can) = tau * ell, and per measure
    integral of g_mu(., y) d mu = 0 and Tr(phi_mu) = integral of g_mu(x, x) dx."""
    g, tau = res.graph, res.tau
    xs = _points(g, pts)
    net = oracle.Network(g, xs)
    problems = []
    can = res.evaluators[0]
    for x, y in zip(xs[0:6:2], xs[1:6:2]):
        got, want = can.g(x, y), tau - net.r(x, y) / 2.0
        if not _close(got, want, tau):
            problems.append(f"g_can {got!r} != tau - r/2 = {want!r}")
    ell = graph_core.total_length(g)
    if not _close(res.traces[0], tau * ell, tau * ell):
        problems.append(f"Tr(phi_can) {res.traces[0]!r} != tau * ell {tau * ell!r}")
    lebesgue = measure.lebesgue_measure(g)
    for ev, trace, y in zip(res.evaluators, res.traces, xs[6:]):
        total, scale = oracle.integrate(ev.mu, lambda x: ev.g(x, y), kinks=[y])
        if not _close(total, 0.0, scale):
            problems.append(f"integral of g_mu(., y) d mu = {total!r}")
        want, scale = oracle.integrate(lebesgue, lambda x: ev.g(x, x),
                                       kinks=[p for p, _ in ev.mu.atoms])
        if not _close(trace, want, scale):
            problems.append(f"Tr(phi_mu) {trace!r} != quadrature {want!r}")
    return problems


# queries ------------------------------------------------------------------

QUERY_CLI_TAU = ("dodecahedron", "icosahedron")


def queries(seed, smoke):
    """Set-up builds two graphs with their kernels and Green evaluators; the
    ops are cheap reads against that state, plus cold in-process CLI calls."""
    rng = _rng(seed, 3)
    builtin = "tetrahedron" if smoke else "dodecahedron"
    ops = []
    for cubic, (vertices, edges) in enumerate((_builtin_spec(builtin),
                                               random_cubic(rng, 6 if smoke else 90))):
        g = graph_core.build_graph(vertices, edges)
        circuit.resistance_kernel(g)
        evs = [green.build_green(g, measure.canonical_measure(g)),
               green.build_green(g, _measure(g, _signed_measure(rng, edges)))]
        taus = {}  # the checks' reference tau, computed on first use

        def pts(count, g=g, edges=edges):
            return _points(g, _interior(rng, edges, count))

        # the cubic graph's r and j ops (0.5-0.8 ms) hold the median latency:
        # 10 g ops and 6 built-in r/j ops lie below them and 16 slower ops
        # above.  Nine pairs rather than three average over more points, so
        # the median moves less with the seed.
        for _ in range(9 if cubic else 3):
            x, y, z = pts(3)
            ops.append(Op("r", partial(_late, circuit, "effective_resistance", g, x, y),
                          partial(_check_r, g, x, y), perturb=lambda r: r * PERTURB))
            ops.append(Op("j", partial(_late, circuit, "j_function", g, z, y, x),
                          partial(_check_j, g, z, y, x)))
        for ev in evs:
            canonical = ev is evs[0]
            for _ in range(3 if canonical else 2):
                x, y, w, z = pts(4)
                ops.append(Op("g", partial(_late, ev, "g", x, y),
                              partial(_check_g, ev, taus if canonical else None, x, y, w, z)))
            y, *xs = pts(4)
            ops.append(Op("g_profile", partial(_late, ev, "g_profile", y),
                          partial(_check_profile, ev, y, xs), digest=_profile_digest))
            y0, *xs = pts(21)
            ops.append(Op("disc_sum", partial(_late, green, "discriminant_sum", ev, xs),
                          partial(_check_disc, ev, taus if canonical else None, xs, y0)))
            nu, omega = (measure.Measure(g, [(g.point(e, t), m) for e, t, m in
                                             _mass_zero(rng, edges, 3)]) for _ in range(2))
            ops.append(Op("energy", partial(_late, green, "energy_pairing", ev, nu, omega),
                          partial(_check_energy, nu, omega)))
    g = graph_core.builtin_graph(builtin)
    for _ in range(2):
        x, y = _interior(rng, [tuple(e) for e in g.edges], 2)
        argv = ["resistance", "--graph", f"builtin:{builtin}",
                "--x", f"{x[0]}:{x[1]!r}", "--y", f"{y[0]}:{y[1]!r}"]
        ops.append(Op("cli_resistance", partial(_cli, argv),
                      partial(_check_cli_resistance, g, _points(g, [x, y]))))
    for name in (["tetrahedron"] if smoke else QUERY_CLI_TAU):
        ops.append(Op("cli_tau", partial(_cli, ["tau", "--graph", f"builtin:{name}"]),
                      partial(_check_cli_tau, name)))
    return _shuffled(rng, ops)


def _late(owner, name, *args):
    """owner.name(*args), looked up at call time so that trace wrappers apply."""
    return getattr(owner, name)(*args)


def _cli(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    return code, out.getvalue()


def _tau(ev, taus):
    if "tau" not in taus:
        taus["tau"] = green.tau_constant(ev.graph)
    return taus["tau"]


def _check_r(g, x, y, r):
    want = oracle.Network(g, [x, y]).r(x, y)
    return [] if _close(r, want, want) else [f"r {r!r} != networkx {want!r}"]


def _check_j(g, z, y, x, j):
    net = oracle.Network(g, [x, y, z])
    rxz, ryz, rxy = net.r(x, z), net.r(y, z), net.r(x, y)
    want = 0.5 * (rxz + ryz - rxy)
    return [] if _close(j, want, rxz + ryz) else [f"j {j!r} != (r_xz + r_yz - r_xy)/2 {want!r}"]


def _check_g(ev, taus, x, y, w, z, got):
    """Canonical: g = tau - r/2.  Any measure: the cross difference
    g(x,y) - g(x,z) - g(w,y) + g(w,z) = (r(x,z) + r(w,y) - r(x,y) - r(w,z))/2."""
    net = oracle.Network(ev.graph, [x, y, w, z])
    if taus is not None:
        tau = _tau(ev, taus)
        want = tau - net.r(x, y) / 2.0
        return [] if _close(got, want, tau) else [f"g_can {got!r} != tau - r/2 {want!r}"]
    rs = [net.r(x, z), net.r(w, y), net.r(x, y), net.r(w, z)]
    lhs = got - ev.g(x, z) - ev.g(w, y) + ev.g(w, z)
    want = 0.5 * (rs[0] + rs[1] - rs[2] - rs[3])
    return [] if _close(lhs, want, sum(rs)) else [f"g cross difference {lhs!r} != {want!r}"]


def _check_profile(ev, y, xs, profile):
    """Integral of the profile against mu is 0; it agrees with g(., y)."""
    problems = []
    total, scale = oracle.integrate(ev.mu, lambda x: float(np.real(profile[x.edge](x.offset))),
                                    kinks=[y])
    if not _close(total, 0.0, scale):
        problems.append(f"integral of g_mu(., y) d mu = {total!r}")
    for x in xs:
        got, want = float(np.real(profile[x.edge](x.offset))), ev.g(x, y)
        if not _close(got, want, max(1.0, abs(want))):
            problems.append(f"g_profile {got!r} != g {want!r}")
    return problems


def _check_disc(ev, taus, xs, y0, report):
    """sum_{i<j} g(x_i, x_j) = (N-1) sum_i g(x_i, y0) + (N-1)/2 sum_i r(x_i, y0)
    - (1/2) sum_{i<j} r(x_i, x_j) - P g(y0, y0), with P = N(N-1)/2 pairs;
    for the canonical measure also sup g(x, x) = tau."""
    net = oracle.Network(ev.graph, xs + [y0])
    n, pairs = len(xs), len(xs) * (len(xs) - 1) // 2
    rows = [net.r_from(x, xs + [y0]) for x in xs]
    r_pairs = math.fsum(rows[i][j] for i in range(n) for j in range(i + 1, n))
    r_y0 = math.fsum(row[-1] for row in rows)
    want = ((n - 1) * math.fsum(ev.g(x, y0) for x in xs) + 0.5 * (n - 1) * r_y0
            - 0.5 * r_pairs - pairs * ev.g(y0, y0)) / pairs
    problems = []
    if not _close(report.average_sum, want, (r_pairs + r_y0) / pairs):
        problems.append(f"disc-sum average {report.average_sum!r} != {want!r}")
    if taus is not None and not _close(report.sup_diagonal, _tau(ev, taus), _tau(ev, taus)):
        problems.append(f"sup g_can(x, x) {report.sup_diagonal!r} != tau")
    return problems


def _check_energy(nu, omega, value):
    """For mass-zero nu and omega, <nu, omega>_mu = -(1/2) sum nu_i omega_j r(p_i, q_j)."""
    ps, qs = [p for p, _ in nu.atoms], [q for q, _ in omega.atoms]
    net = oracle.Network(nu.graph, ps + qs)
    terms = [m * w * r for (p, m) in nu.atoms
             for (_, w), r in zip(omega.atoms, net.r_from(p, qs))]
    want = -0.5 * math.fsum(terms)
    scale = math.fsum(abs(t) for t in terms)
    if _close(value.real, want, scale) and abs(value.imag) <= REL * scale:
        return []
    return [f"energy {value!r} != -(1/2) sum r dnu domega {want!r}"]


def _check_cli_resistance(g, points, out):
    code, text = out
    if code != 0:
        return [f"cli resistance exited {code}"]
    got = json.loads(text)["resistance"]
    want = oracle.Network(g, points).r(*points)
    return [] if _close(got, want, 0.02 * want) else [f"cli r {got!r} != networkx {want!r}"]


def _check_cli_tau(name, out):
    code, text = out
    with open(TABLE_CSV, encoding="utf-8") as fh:
        want = next(line.split(",")[1] for line in fh if line.startswith(name + ","))
    got = format(json.loads(text)["tau"], ".12g") if code == 0 else f"exit {code}"
    return [] if got == want else [f"cli tau {got} != table.csv {want}"]


def _profile_digest(profile):
    return repr([(eid, [c.tolist() for c in pw.coeffs]) for eid, pw in profile.items()])


WORKLOADS = {"table": table, "spectrum": spectrum, "potential": potential,
             "queries": queries}
