"""Command-line interface.

Every command prints deterministic output (floats at 12 significant digits,
LF line endings) as JSON or CSV.  Exit codes: 0 success, 2 usage or
unreadable input, 3 validation error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .graph_core import (
    PointOnGraph,
    ValidationError,
    builtin_graph,
    format_point,
    load_graph,
    parse_point,
    total_length,
    valence,
)
from .green import (
    build_green,
    discriminant_sum,
    energy_pairing,
    tau_constant,
    trace_comparison,
    trace_of_phi,
)
from .measure import (
    CPAFunction,
    canonical_measure,
    lebesgue_measure,
    measure_summary,
    measure_to_json,
    resolve_measure,
)
from .numerics import NumericError
from .spectral import eigenfunctions_at, find_eigenvalues

TABLE_GRAPHS = (
    "k33", "k5", "petersen", "tetrahedron",
    "cube", "octahedron", "dodecahedron", "icosahedron",
)
TABLE_GAMMA_MAX = 60.0  # covers the first two distinct eigenvalues of each


def _fmt(value):
    return f"{value:.12g}"


def _round_floats(obj):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (float, np.floating)):
        return float(_fmt(float(obj)))
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return _fmt(float(value))
    return str(value)


def _load_graph_arg(spec):
    if spec.startswith("builtin:"):
        return builtin_graph(spec)
    if os.sep in spec or spec.endswith(".json"):
        return load_graph(spec)
    try:
        return builtin_graph(spec)
    except ValidationError:
        return load_graph(spec)


def _eigen_pairs(graph, mu, args):
    if not args.lambda_max > 0.0:
        raise ValidationError("--lambda-max must be positive")
    return find_eigenvalues(graph, mu, math.sqrt(args.lambda_max), args.gamma_floor)


def _display(pairs):
    return ", ".join(f"{p.eigenvalue:.2f}({p.multiplicity})" for p in pairs)


def cmd_info(args):
    g = _load_graph_arg(args.graph)
    payload = {
        "vertices": list(g.vertices),
        "edges": [
            {"id": e.id, "u": e.u, "v": e.v, "length": e.length}
            for e in g.edges
        ],
        "total_length": total_length(g),
        "valences": {v: valence(g, v) for v in g.vertices},
    }
    rows = [[e.id, e.u, e.v, e.length] for e in g.edges]
    return payload, ["edge", "u", "v", "length"], rows


def cmd_resistance(args):
    g = _load_graph_arg(args.graph)
    x = parse_point(g, args.x)
    y = parse_point(g, args.y)
    from .circuit import effective_resistance

    r = effective_resistance(g, x, y)
    payload = {"x": format_point(g, x), "y": format_point(g, y), "resistance": r}
    return payload, ["x", "y", "resistance"], [[args.x, args.y, r]]


def cmd_jfun(args):
    g = _load_graph_arg(args.graph)
    zeta = parse_point(g, args.zeta)
    x = parse_point(g, args.x)
    y = parse_point(g, args.y)
    from .circuit import j_function

    val = j_function(g, zeta, y, x)
    payload = {
        "zeta": format_point(g, zeta),
        "x": format_point(g, x),
        "y": format_point(g, y),
        "j": val,
    }
    return payload, ["zeta", "x", "y", "j"], [[args.zeta, args.x, args.y, val]]


def cmd_green(args):
    g = _load_graph_arg(args.graph)
    mu = resolve_measure(g, args.measure)
    ev = build_green(g, mu)
    x = parse_point(g, args.x)
    y = parse_point(g, args.y)
    val = ev.g(x, y)
    payload = {
        "measure": args.measure,
        "x": format_point(g, x),
        "y": format_point(g, y),
        "green": val,
    }
    return payload, ["x", "y", "green"], [[args.x, args.y, val]]


def cmd_canonical_measure(args):
    g = _load_graph_arg(args.graph)
    mu = canonical_measure(g)
    mass, variation, atoms = measure_summary(mu)
    payload = measure_to_json(mu)
    payload["total_mass"] = float(np.real(mass))
    payload["total_variation"] = float(variation)
    rows = [["atom", format_point(g, p), float(np.real(m))] for p, m in mu.atoms]
    rows += [
        ["density", eid, float(np.real(coeffs[0]))]
        for eid, coeffs in mu.densities.items()
    ]
    return payload, ["kind", "location", "value"], rows


def cmd_tau(args):
    g = _load_graph_arg(args.graph)
    t = tau_constant(g)
    return {"tau": t}, ["tau"], [[t]]


def cmd_eigen(args):
    g = _load_graph_arg(args.graph)
    mu = resolve_measure(g, args.measure)
    pairs = _eigen_pairs(g, mu, args)
    payload = {
        "measure": args.measure,
        "lambda_max": args.lambda_max,
        "eigenvalues": [
            {"lambda": p.eigenvalue, "multiplicity": p.multiplicity}
            for p in pairs
        ],
        "display": _display(pairs),
    }
    rows = [[p.eigenvalue, p.multiplicity] for p in pairs]
    return payload, ["lambda", "multiplicity"], rows


def _coefficient_rows(f):
    """f's coefficients as JSON rows by the caller's edge id; an edge that the
    remap chain cut at interior atoms comes as its pieces in offset order,
    each with its "start" on the edge and coefficients in its own offset."""
    cut = {}
    for r in f.remaps:
        edge, start = cut.pop(r.split_edge, (r.split_edge, 0.0))
        cut[r.child_u], cut[r.child_v] = (edge, start), (edge, start + r.split_offset)
    trig, particular = f.trig, f.particular
    rows = [{**dict(zip(("edge", "start"), cut.get(eid, (eid,)))), "cos": trig[eid][0],
             "sin": trig[eid][1], "particular": [float(c) for c in particular[eid]]}
            for eid in f.edges]
    return sorted(rows, key=lambda row: (row["edge"], row.get("start", 0.0)))


def cmd_eigenfunctions(args):
    if args.samples_per_edge < 0:
        raise ValidationError("--samples-per-edge must be nonnegative")
    g = _load_graph_arg(args.graph)
    mu = resolve_measure(g, args.measure)
    ids = np.repeat([e.id for e in g.edges], args.samples_per_edge).tolist()
    t = np.linspace(0.0, g.edge_arrays[1], args.samples_per_edge, axis=1).ravel()
    entries, rows, index = [], [], 0
    for p in _eigen_pairs(g, mu, args):
        pair = eigenfunctions_at(g, mu, math.sqrt(p.eigenvalue))
        for f in pair.eigenfunctions:
            index += 1
            entries.append({
                "index": index,
                "lambda": pair.eigenvalue,
                "gamma": f.gamma,
                "constant": f.constant,
                "edges": _coefficient_rows(f),
            })
            rows += zip([index] * len(ids), [pair.eigenvalue] * len(ids), ids, t.tolist(),
                        f.value(ids, t).tolist())
    payload = {"measure": args.measure, "eigenfunctions": entries}
    return payload, ["index", "lambda", "edge", "offset", "value"], rows


def cmd_trace(args):
    g = _load_graph_arg(args.graph)
    mu = resolve_measure(g, args.measure)
    t = trace_of_phi(build_green(g, mu))
    return {"measure": args.measure, "trace": t}, ["trace"], [[t]]


def cmd_trace_compare(args):
    g = _load_graph_arg(args.graph)
    mu1 = resolve_measure(g, args.measure)
    mu2 = resolve_measure(g, args.measure2)
    lhs, rhs = trace_comparison(g, mu1, mu2)
    payload = {
        "measure": args.measure,
        "measure2": args.measure2,
        "trace_direct": lhs,
        "trace_via_second": rhs,
        "difference": lhs - rhs,
    }
    return payload, ["trace_direct", "trace_via_second", "difference"], \
        [[lhs, rhs, lhs - rhs]]


def _sample_grid(g, npts):
    """(edge ids, rows, offsets) of the midpoints of k = max(1, round(npts L
    / total length)) equal parts of each edge of length L."""
    _, L, _ = g.edge_arrays
    k = np.maximum(1, np.round(npts * L / total_length(g))).astype(int)
    rows = np.repeat(np.arange(len(L)), k)
    j = np.arange(len(rows)) - np.repeat(np.cumsum(k) - k, k)
    ids = np.array([e.id for e in g.edges], dtype=object)[rows]
    return ids, rows, (j + 0.5) * L[rows] / k[rows]


def cmd_mercer_check(args):
    if args.grid_points < 1:
        raise ValidationError("--grid-points must be positive")
    g = _load_graph_arg(args.graph)
    mu = resolve_measure(g, args.measure)
    pairs = _eigen_pairs(g, mu, args)
    ev = build_green(g, mu)
    ids, k, t = _sample_grid(g, args.grid_points)
    exact = np.column_stack([ev.g_profile(y).values_at(k, t)
                             for y in map(PointOnGraph, ids, t.tolist())])
    partial = np.zeros_like(exact)
    rows, used = [], 0
    for p in pairs:
        pair = eigenfunctions_at(g, mu, math.sqrt(p.eigenvalue))
        vals = np.array([f.value(ids, t) for f in pair.eigenfunctions])
        partial += vals.T @ vals / pair.eigenvalue
        used += len(vals)
        rows.append([p.eigenvalue, used, float(np.max(np.abs(exact - partial)))])
    sups = [r[2] for r in rows]
    payload = {
        "measure": args.measure,
        "grid_points": len(t),
        "rows": [
            {"lambda": lam, "functions": n, "sup_error": s}
            for lam, n, s in rows
        ],
        "final_sup_error": sups[-1] if sups else None,
        "nonincreasing": all(b <= a + 1e-9 for a, b in zip(sups, sups[1:])),
    }
    return payload, ["lambda", "functions", "sup_error"], rows


def cmd_energy(args):
    g = _load_graph_arg(args.graph)
    mu = resolve_measure(g, args.measure)
    ev = build_green(g, mu)
    nu = resolve_measure(g, args.nu)
    omega = resolve_measure(g, args.omega if args.omega else args.nu)
    val = complex(energy_pairing(ev, nu, omega))
    payload = {
        "measure": args.measure,
        "energy_real": val.real,
        "energy_imag": val.imag,
    }
    return payload, ["energy_real", "energy_imag"], [[val.real, val.imag]]


def cmd_disc_sum(args):
    g = _load_graph_arg(args.graph)
    mu = resolve_measure(g, args.measure)
    ev = build_green(g, mu)
    pts = [parse_point(g, tok) for tok in args.points.split(",") if tok]
    report = dataclasses.asdict(discriminant_sum(ev, pts))
    payload = {"measure": args.measure, "points": len(pts), **report}
    return payload, list(report), [list(report.values())]


def _load_trial(graph, path):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    interior = {}
    for entry in data.get("interior_nodes", []):
        p = parse_point(graph, entry["point"])
        interior.setdefault(p.edge, []).append((p.offset, float(entry["value"])))
    return CPAFunction(graph, data.get("vertex_values", {}), interior or None)


def cmd_rayleigh(args):
    g = _load_graph_arg(args.graph)
    mu = resolve_measure(g, args.measure)
    trial = _load_trial(g, args.trial)
    from .spectral import rayleigh_quotient

    q = rayleigh_quotient(g, mu, trial)
    return {"measure": args.measure, "rayleigh": q}, ["rayleigh"], [[q]]


def cmd_reproduce_table(args):
    rows = []
    for name in TABLE_GRAPHS:
        g = builtin_graph(name)
        tau = tau_constant(g)
        row = [name, tau]
        for mu in (lebesgue_measure(g, normalize=True), canonical_measure(g)):
            pairs = find_eigenvalues(g, mu, TABLE_GAMMA_MAX)
            if len(pairs) < 2:
                raise NumericError(f"fewer than two eigenvalues for {name}")
            row += [pairs[0].eigenvalue, pairs[0].multiplicity,
                    pairs[1].eigenvalue, pairs[1].multiplicity]
        rows.append(row)
    header = ["graph", "tau",
              "lambda1_dx", "mult1_dx", "lambda2_dx", "mult2_dx",
              "lambda1_can", "mult1_can", "lambda2_can", "mult2_can"]
    payload = {"rows": [dict(zip(header, row)) for row in rows]}
    return payload, header, rows


def _add_graph(parser):
    parser.add_argument("--graph", required=True,
                        help="builtin:NAME or path to a graph JSON file")


def _add_measure(parser, name="--measure", default="dx-normalized"):
    parser.add_argument(name, default=default,
                        help="dx | dx-normalized | canonical | measure JSON path")


def _add_output(parser):
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--output", default=None,
                        help="write to this path instead of stdout")


def _add_spectral(parser):
    parser.add_argument("--lambda-max", type=float, default=400.0,
                        help="largest eigenvalue to search for")
    parser.add_argument("--gamma-floor", type=float, default=None,
                        help="smallest gamma = sqrt(lambda) searched "
                             "(default 1e-6 / total length)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="metragraph",
        description="Harmonic analysis on metrized graphs: resistance, "
                    "Green's functions, canonical measure, spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, *, graph=True, measure=False, spectral=False):
        p = sub.add_parser(name, help=help_text)
        if graph:
            _add_graph(p)
        if measure:
            _add_measure(p)
        if spectral:
            _add_spectral(p)
        _add_output(p)
        p.set_defaults(func=func)
        return p

    add("info", cmd_info, "vertices, edges, lengths, valences")

    p = add("resistance", cmd_resistance, "effective resistance r(x, y)")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)

    p = add("jfun", cmd_jfun, "potential j_zeta(x, y)")
    p.add_argument("--zeta", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)

    p = add("green", cmd_green, "Green's function g_mu(x, y)", measure=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)

    add("canonical-measure", cmd_canonical_measure,
        "canonical measure atoms and edge densities")

    add("tau", cmd_tau, "tau constant of the graph")

    add("eigen", cmd_eigen, "eigenvalues up to lambda-max",
        measure=True, spectral=True)

    p = add("eigenfunctions", cmd_eigenfunctions,
            "orthonormal eigenfunctions with plot samples",
            measure=True, spectral=True)
    p.add_argument("--samples-per-edge", type=int, default=20)

    add("trace", cmd_trace, "trace of phi_mu (integral of g_mu(x, x) dx)",
        measure=True)

    p = add("trace-compare", cmd_trace_compare,
            "trace identity between two measures", measure=True)
    _add_measure(p, "--measure2", default="canonical")

    p = add("mercer-check", cmd_mercer_check,
            "partial-sum approximation error of the kernel expansion",
            measure=True, spectral=True)
    p.add_argument("--grid-points", type=int, default=50)

    p = add("energy", cmd_energy, "energy pairing <nu, omega>_mu", measure=True)
    p.add_argument("--nu", required=True, help="measure spec or JSON path")
    p.add_argument("--omega", default=None,
                   help="measure spec or JSON path (default: same as --nu)")

    p = add("disc-sum", cmd_disc_sum,
            "average off-diagonal Green sum and its lower bound", measure=True)
    p.add_argument("--points", required=True,
                   help="comma-separated points, e.g. e1:0.1,e2:0.5,a")

    p = add("rayleigh", cmd_rayleigh, "Rayleigh quotient of a CPA trial",
            measure=True)
    p.add_argument("--trial", required=True, help="CPA trial JSON path")

    add("reproduce-table", cmd_reproduce_table,
        "tau and first two eigenvalues for the eight reference graphs",
        graph=False)

    return parser


def _emit(result, args):
    payload, header, rows = result
    if args.format == "json":
        text = json.dumps(_round_floats(payload), indent=2) + "\n"
    else:
        lines = [",".join(header)]
        lines += [",".join(_cell(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(result, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
