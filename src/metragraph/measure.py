"""Finite signed measures of computable form: atoms plus per-edge polynomial
densities, mu = g(x) dx + sum c_i delta_{p_i}.

Density coefficients are ascending in the un-normalized edge coordinate
t in [0, L(e)] and give the density per unit length.  Atoms sitting at edge
endpoints canonicalize to vertices and merge.  Reference measures must be
real with total mass 1; auxiliary measures (for energy pairings) may carry
complex masses.  The total mass, the resistance potentials and the spectral
layer read a measure through Measure.arrays: its atoms and densities as
arrays in the graph's edge order, built once.
"""

from __future__ import annotations

import json
import math
from itertools import chain, compress

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import circuit
from .graph_core import (
    ValidationError, format_point, parse_point, total_length, valence,
)
from .numerics import shift_polys

REFERENCE_MASS_TOL = 1e-10
CANONICAL_MASS_TOL = 1e-10


class Measure:
    """Atoms + per-edge polynomial densities on a fixed graph.

    ``atoms`` and ``densities`` give the measure per point and per edge id;
    a density keeps its given length and stays real unless given complex.
    ``arrays`` gives the same measure in array form, built once: the atoms'
    edge rows, offsets and masses, in ``atoms`` order, and an m x K density
    matrix whose row k holds the ascending coefficients on graph.edges[k],
    zero-padded to the longest density (K = 1 when there is none).  Its
    masses and density matrix share one dtype, complex when any entry is.
    """

    def __init__(self, graph, atoms=(), densities=None):
        self.graph = graph
        self._cache = {}
        merged = {}
        for point, mass in atoms:
            key = graph.point_key(point)
            if key in merged:
                old_pt, old_mass = merged[key]
                merged[key] = (old_pt, old_mass + mass)
            else:
                merged[key] = (point, complex(mass) if isinstance(mass, complex)
                               else float(mass))
        self._atoms = {k: merged[k] for k in sorted(merged)}
        row = graph.edge_arrays[0]
        mass = np.array([m for _, m in self.atoms])
        dtype = complex if np.iscomplexobj(mass) else float
        if densities:
            self.densities, D = self._density_arrays(graph, row, densities, dtype)
        else:  # atom-only: no stacking pass
            self.densities, D = {}, np.zeros((len(graph.edges), 1), dtype)
        self.arrays = (np.array([row[p.edge] for p, _ in self.atoms], dtype=int),
                       np.array([p.offset for p, _ in self.atoms], dtype=float),
                       mass.astype(D.dtype), D)

    @staticmethod
    def _density_arrays(graph, row, densities, dtype):
        """(densities, m x K matrix) in one pass; the matrix is complex when
        dtype is or when any density is."""
        unknown = densities.keys() - row.keys()
        if unknown:  # named as the first of them in the given order
            graph.edge(next(filter(unknown.__contains__, densities)))
        # one zero-padded matrix, a row per density in sorted edge-id order
        names = sorted(densities)
        rows = np.array(list(map(row.__getitem__, names)), dtype=int)
        coeffs = list(map(densities.__getitem__, names))
        if not all(map(np.iterable, coeffs)):
            coeffs = list(map(np.atleast_1d, coeffs))
        size = np.array(list(map(len, coeffs)), dtype=int)
        flat = np.array(list(chain.from_iterable(coeffs)))
        P = np.zeros((len(names), size.max(initial=1)), np.result_type(float, flat))
        P[np.arange(P.shape[1]) < size[:, None]] = flat
        cplx = np.zeros(len(names), dtype=bool)
        if np.iscomplexobj(P):  # a real row beside a complex one stays real
            cplx[:] = list(map(np.iscomplexobj, coeffs))
        keep = np.any(P != 0, axis=1)
        dens = dict(zip(compress(names, keep), map(
            lambda r, k, c: (r if c else r.real)[:k],
            P[keep], size[keep].tolist(), cplx[keep])))
        if np.any(cplx[keep]):
            dtype = complex
        D = np.zeros((len(graph.edges), size[keep].max(initial=1)), dtype)
        D[rows[keep]] = (P if dtype is complex else P.real)[keep, :D.shape[1]]
        return dens, D

    @property
    def atoms(self):
        """Deterministically ordered list of (point, mass)."""
        return list(self._atoms.values())

    def density(self, edge_id):
        return self.densities.get(edge_id, np.zeros(1))

    def is_real(self):
        return not np.iscomplexobj(self.arrays[3])

    def total_mass(self):
        """Atom masses plus sum_k c_k L^(k+1) / (k+1) over the density rows,
        computed on first use and kept in the measure's cache."""
        if "total_mass" not in self._cache:
            _, _, mass, D = self.arrays
            L = self.graph.edge_arrays[1]
            k = np.arange(1, D.shape[1] + 1)
            total = (mass.sum() + np.sum(D * (L[:, None] ** k / k))).item()
            if isinstance(total, complex) and total.imag == 0:
                total = total.real
            self._cache["total_mass"] = total
        return self._cache["total_mass"]

    def total_variation(self):
        """Atom masses plus the integral of |density| (EdgeTable.abs_integrals:
        exact for a real density, a Gauss rule between the real zeros of a
        complex one), the edges added one by one in graph order."""
        var = math.fsum(abs(m) for _, m in self.atoms)
        per_edge = circuit.EdgeTable(self.graph, self.arrays[3]).abs_integrals()
        return float(np.cumsum(np.append(var, per_edge))[-1])

    def atom_count(self):
        return len(self._atoms)

    def require_reference(self):
        """Validate use as a reference measure: real, total mass 1."""
        if not self.is_real():
            raise ValidationError("reference measure must have real masses")
        mass = self.total_mass()
        if abs(mass - 1.0) > REFERENCE_MASS_TOL:
            raise ValidationError(f"reference measure has mass {mass!r}, expected 1")
        return self

    def _same_graph(self, other):
        if other.graph is not self.graph:
            raise ValidationError("measures live on different graphs")

    def __add__(self, other):
        self._same_graph(other)
        atoms = self.atoms + other.atoms
        dens = dict(self.densities)
        for eid, c in other.densities.items():
            dens[eid] = npoly.polyadd(dens[eid], c) if eid in dens else c
        return Measure(self.graph, atoms, dens)

    def __sub__(self, other):
        return self + (other * -1.0)

    def __mul__(self, scalar):
        atoms = [(p, m * scalar) for p, m in self.atoms]
        dens = {eid: c * scalar for eid, c in self.densities.items()}
        return Measure(self.graph, atoms, dens)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __repr__(self):
        return (
            f"Measure(mass {self.total_mass()!r}, {self.atom_count()} atoms, "
            f"{len(self.densities)} density edges)"
        )


def measure_summary(mu):
    """(total mass, total variation, atom count)."""
    return mu.total_mass(), mu.total_variation(), mu.atom_count()


def dirac(graph, point, mass=1.0):
    return Measure(graph, [(point, mass)])


def lebesgue_measure(graph, normalize=False):
    """Constant density 1 per unit length (1/total length when normalized)."""
    c = 1.0 / total_length(graph) if normalize else 1.0
    return Measure(graph, (), {e.id: [c] for e in graph.edges})


def canonical_measure(graph):
    """Vertex masses 1 - valence/2 plus edge densities 1/(L(e) + R(e)).

    R(e) is the removed-edge resistance; the densities are read from the
    resistance kernel, and bridges get density 0.  The total mass is
    asserted to be 1.
    """
    atoms = []
    for v in graph.vertices:
        mass = 1.0 - 0.5 * valence(graph, v)
        if mass != 0.0:
            atoms.append((graph.point_at_vertex(v), mass))
    kernel = circuit.resistance_kernel(graph)
    densities = {
        eid: [c] for eid, c in kernel.canonical_density.items() if c > 0.0
    }
    mu = Measure(graph, atoms, densities)
    mass = mu.total_mass()
    if abs(mass - 1.0) > CANONICAL_MASS_TOL:
        raise ValidationError(f"canonical measure has mass {mass!r}")
    return mu


def integrate_polys_against(mu, table):
    """Exact integral against mu of an EdgeTable (EdgeTable.integrate); a
    complex total with no imaginary part is returned as a real one."""
    total = table.integrate(mu)
    if isinstance(total, complex) and total.imag == 0:
        total = total.real
    return total


def measure_from_json(graph, data):
    """Parse {"atoms":[{"point":..., "mass":...}], "densities":[...]}. """
    if isinstance(data, str):
        data = json.loads(data)
    atoms = []
    for item in data.get("atoms", []):
        try:
            atoms.append((parse_point(graph, item["point"]), float(item["mass"])))
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed atom entry: {exc}") from None
    densities = {}
    for item in data.get("densities", []):
        try:
            densities[item["edge"]] = [float(c) for c in item["poly"]]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed density entry: {exc}") from None
    return Measure(graph, atoms, densities)


def measure_to_json(mu):
    atoms = [
        {"point": format_point(mu.graph, p), "mass": float(np.real(m))}
        for p, m in mu.atoms
    ]
    densities = [
        {"edge": eid, "poly": [float(np.real(c)) for c in coeffs]}
        for eid, coeffs in mu.densities.items()
    ]
    return {"atoms": atoms, "densities": densities}


def load_measure(graph, path):
    with open(path, encoding="utf-8") as fh:
        return measure_from_json(graph, json.load(fh))


def resolve_measure(graph, spec):
    """Resolve 'dx' | 'dx-normalized' | 'canonical' | JSON file path."""
    if spec == "dx":
        return lebesgue_measure(graph)
    if spec == "dx-normalized":
        return lebesgue_measure(graph, normalize=True)
    if spec == "canonical":
        return canonical_measure(graph)
    return load_measure(graph, spec)


def remap_measure(mu, graph2, remap):
    """Carry a measure through a subdivision remap onto the new graph.

    Atoms move through the point remap (an atom at the split point migrates
    to the new vertex); the split edge's density is restricted to the two
    child edges with the child-local coordinate shift.
    """
    atoms = [(remap(p), m) for p, m in mu.atoms]
    densities = dict(mu.densities)
    if remap.split_edge in densities:
        coeffs = densities.pop(remap.split_edge)
        densities[remap.child_u] = coeffs
        densities[remap.child_v] = shift_polys(coeffs[None], remap.split_offset)[0]
    return Measure(graph2, atoms, densities)


class CPAFunction:
    """Continuous piecewise-affine test function on a graph.

    Built from one value per vertex plus optional interior nodes per edge;
    affine between nodes.  ``segments`` holds the segments between nodes as
    arrays (edge rows, ends a and b, values fa and fb), by row and offset.
    """

    def __init__(self, graph, vertex_values, interior=None):
        self.graph = graph
        self._nodes = {}
        interior = interior or {}
        segments = []
        for k, e in enumerate(graph.edges):
            u_val = float(vertex_values.get(e.u, 0.0))
            v_val = float(vertex_values.get(e.v, 0.0))
            pts = sorted(interior.get(e.id, []))
            for t, _ in pts:
                if not (0.0 < t < e.length):
                    raise ValidationError(
                        f"interior node offset {t} outside edge {e.id!r}"
                    )
            ts = [0.0] + [float(t) for t, _ in pts] + [e.length]
            vs = [u_val] + [float(v) for _, v in pts] + [v_val]
            self._nodes[e.id] = ts, vs = np.array(ts), np.array(vs)
            segments.append((np.full(len(pts) + 1, k), ts[:-1], ts[1:], vs[:-1], vs[1:]))
        self.segments = tuple(map(np.concatenate, zip(*segments)))

    def eval(self, edge_id, t):
        ts, vs = self._nodes[edge_id]
        return np.interp(np.asarray(t, dtype=float), ts, vs)

    def at_point(self, point):
        return float(self.eval(point.edge, point.offset))

    def table(self):
        """The function as an EdgeTable: each edge's first segment as its
        row, and a kink at each interior node whose jump is the change of
        slope there."""
        rows, a, b, fa, fb = self.segments
        slope = (fb - fa) / (b - a)
        inner = a > 0.0
        coeffs = np.column_stack([fa[~inner], slope[~inner]])
        jumps = slope[inner] - slope[np.flatnonzero(inner) - 1]
        return circuit.EdgeTable(self.graph, coeffs, (rows[inner], a[inner], jumps))

    def dirichlet_energy(self):
        """Sum over segments of slope^2 (b - a)."""
        _, a, b, fa, fb = self.segments
        return float(np.sum(((fb - fa) / (b - a)) ** 2 * (b - a)))

    def l2_norm_sq(self):
        """Sum over segments of (b - a) (fa^2 + fa fb + fb^2) / 3, exact."""
        _, a, b, fa, fb = self.segments
        return float(np.sum((b - a) * (fa * fa + fa * fb + fb * fb)) / 3.0)
