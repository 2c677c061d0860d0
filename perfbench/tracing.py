"""Spans around the library's public functions, and per-layer metrics.

``Tracer.install`` replaces each target at the attribute its callers look
up (a module global or a class attribute) with a wrapper that records a
span (name, start, end, parent, op) in memory; ``uninstall`` restores the
originals.  Nothing in the library changes.
"""

import functools
import json
import statistics
from time import perf_counter

LAYERS = ("graph_core", "circuit", "measure", "green", "spectral", "numerics", "cli")


def _targets():
    """(span name, [(owner, attribute)], optional tally of the return value)."""
    import scipy.optimize

    from metragraph import cli, circuit, graph_core, green, measure, spectral

    kernel, evaluator, problem = circuit.ResistanceKernel, green.GreenEvaluator, \
        spectral.SpectralProblem
    roots = lambda pairs: sum(p.multiplicity for p in pairs)  # noqa: E731
    return [
        ("graph_core.build", [(graph_core, "build_graph")], None),
        ("graph_core.subdivide", [(graph_core, "subdivide_at"), (spectral, "subdivide_at")], None),
        ("circuit.resistance", [(circuit, "effective_resistance")], None),
        ("circuit.j_function", [(circuit, "j_function")], None),
        ("circuit.kernel_build", [(kernel, "__init__")], None),
        ("circuit.biquad", [(kernel, "biquad")], None),
        ("circuit.profile_polys", [(kernel, "profile_polys")], None),
        ("circuit.removed_edge", [(circuit, "removed_edge_resistance")], None),
        ("measure.canonical", [(measure, "canonical_measure")], None),
        ("measure.integrate", [(green, "integrate_polys_against"),
                               (spectral, "integrate_polys_against")], None),
        ("green.build", [(evaluator, "__init__")], None),
        ("green.g", [(evaluator, "g")], None),
        ("green.g_profile", [(evaluator, "g_profile")], None),
        ("green.tau", [(green, "tau_constant"), (cli, "tau_constant")], None),
        ("green.trace", [(green, "trace_of_phi")], None),
        ("green.disc_sum", [(green, "discriminant_sum")], None),
        ("green.energy", [(green, "energy_pairing")], None),
        ("spectral.problem_init", [(problem, "__init__")], None),
        ("spectral.matrix", [(problem, "matrix")], None),
        ("spectral.nullspace", [(problem, "nullspace")], None),
        ("spectral.find_eigenvalues", [(spectral, "find_eigenvalues")], roots),
        ("spectral.eigenfunctions", [(spectral, "eigenfunctions_at")], None),
        ("spectral.mercer", [(spectral, "mercer_partial_sum")], None),
        ("numerics.brentq", [(scipy.optimize, "brentq")], None),
        ("numerics.golden_min", [(spectral, "golden_min")], None),
        ("numerics.nullspace_basis", [(spectral, "nullspace_basis")], None),
        ("numerics.solve_grounded", [(circuit, "solve_grounded")], None),
        ("cli.main", [(cli, "main")], None),
    ]


class Tracer:
    def __init__(self):
        self.spans = []   # [name, start, end, parent index or -1, op index]
        self.tallies = {}
        self.op = -1
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn, tally):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if tally is not None:
                self.tallies[name] = self.tallies.get(name, 0) + tally(out)
            return out

        return wrapper

    def install(self):
        for name, sites, tally in _targets():
            for owner, attr in sites:
                fn = owner.__dict__[attr]
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn, tally))

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def run_op(self, index, fn):
        """Run one benchmark op as a root span named 'op'."""
        self.op = index
        return self._wrap("op", fn, None)()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def layer_metrics(spans, tallies, passes):
    """Per-layer metrics; counts and times are per pass over the op list."""
    child = [0.0] * len(spans)
    above = [frozenset()] * len(spans)   # names of all ancestor spans
    by_name = {}
    for i, (name, start, end, parent, _) in enumerate(spans):
        by_name.setdefault(name, []).append(i)
        if parent >= 0:
            child[parent] += end - start
            above[i] = above[parent] | {spans[parent][0]}

    def dur(i):
        return spans[i][2] - spans[i][1]

    def count(name):
        return len(by_name.get(name, ())) / passes

    def total(name):
        # outermost spans only, so that recursion is not counted twice
        return sum(dur(i) for i in by_name.get(name, ()) if name not in above[i]) / passes

    def p50(name, scale):
        spans_of = by_name.get(name)
        return statistics.median(dur(i) for i in spans_of) * scale if spans_of else 0.0

    refine = {"numerics.brentq", "numerics.golden_min"}
    out = {
        "spectral.assemblies": (count("spectral.matrix") + count("spectral.nullspace"), "count"),
        "spectral.assemble_ms_p50": (p50("spectral.matrix", 1e3), "ms"),
        "spectral.refine_evals": (sum(1 for i in by_name.get("spectral.matrix", ())
                                      if above[i] & refine) / passes, "count"),
        "spectral.nullspace_calls": (count("spectral.nullspace"), "count"),
        "spectral.find_eigenvalues_s": (total("spectral.find_eigenvalues"), "s"),
        "spectral.problem_init_s": (total("spectral.problem_init"), "s"),
        "spectral.eigenfunctions_ms_p50": (p50("spectral.eigenfunctions", 1e3), "ms"),
        "spectral.roots": (tallies.get("spectral.find_eigenvalues", 0) / passes, "count"),
        "numerics.brentq_calls": (count("numerics.brentq"), "count"),
        "numerics.golden_min_calls": (count("numerics.golden_min"), "count"),
        "numerics.nullspace_basis_s": (total("numerics.nullspace_basis"), "s"),
        "numerics.solve_grounded_calls": (count("numerics.solve_grounded"), "count"),
        "numerics.solve_grounded_s": (total("numerics.solve_grounded"), "s"),
        "green.build_s": (total("green.build"), "s"),
        "green.tau_s": (total("green.tau"), "s"),
        "green.trace_s": (total("green.trace"), "s"),
        "green.g_us_p50": (p50("green.g", 1e6), "us"),
        "green.g_profile_ms_p50": (p50("green.g_profile", 1e3), "ms"),
        "green.disc_sum_ms_p50": (p50("green.disc_sum", 1e3), "ms"),
        "green.energy_ms_p50": (p50("green.energy", 1e3), "ms"),
        "circuit.biquad_calls": (count("circuit.biquad"), "count"),
        "circuit.kernel_build_s": (total("circuit.kernel_build"), "s"),
        "circuit.kernel_builds": (count("circuit.kernel_build"), "count"),
        "circuit.removed_edge_calls": (count("circuit.removed_edge"), "count"),
        "circuit.removed_edge_s": (total("circuit.removed_edge"), "s"),
        "circuit.profile_polys_calls": (count("circuit.profile_polys"), "count"),
        "circuit.resistance_calls": (count("circuit.resistance"), "count"),
        "circuit.resistance_ms_p50": (p50("circuit.resistance", 1e3), "ms"),
        "measure.canonical_s": (total("measure.canonical"), "s"),
        "measure.integrate_s": (total("measure.integrate"), "s"),
        "graph_core.subdivide_calls": (count("graph_core.subdivide"), "count"),
        "graph_core.build_s": (total("graph_core.build"), "s"),
        "cli.main_ms_p50": (p50("cli.main", 1e3), "ms"),
    }
    for layer in LAYERS:
        mine = [i for i, s in enumerate(spans) if s[0].startswith(layer + ".")]
        busy = sum(dur(i) for i in mine
                   if not any(n.startswith(layer + ".") for n in above[i]))
        out[f"{layer}.calls"] = (len(mine) / passes, "count")
        out[f"{layer}.busy_s"] = (busy / passes, "s")
        out[f"{layer}.self_s"] = (sum(dur(i) - child[i] for i in mine) / passes, "s")
    return out
