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
from itertools import chain

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import circuit
from .graph_core import (
    PointOnGraph, ValidationError, format_point, parse_point, total_length,
)
from .numerics import shift_polys

REFERENCE_MASS_TOL = 1e-10
CANONICAL_MASS_TOL = 1e-10


class Measure:
    """Atoms + per-edge polynomial densities on a fixed graph.

    ``arrays`` is the measure: the atoms' edge rows, offsets and masses, and
    an m x K density matrix whose row k holds the ascending coefficients on
    graph.edges[k], zero-padded to the longest density (K = 1 when there is
    none), in one dtype, complex when any entry is.  ``atoms`` and
    ``densities`` are views built on first read: the merged (point, mass)
    pairs by point key, and edge id -> coefficients by edge id, each density
    at its given length and real unless given complex.
    """

    def __init__(self, graph, atoms=(), densities=None):
        merged = {}
        for point, mass in atoms:
            key = graph.point_key(point)
            if key in merged:
                old_pt, old_mass = merged[key]
                merged[key] = (old_pt, old_mass + mass)
            else:
                merged[key] = (point, complex(mass) if isinstance(mass, complex)
                               else float(mass))
        atoms = [merged[k] for k in sorted(merged)]
        row = graph.edge_arrays[0]
        mass = np.array([m for _, m in atoms])
        dtype = complex if np.iscomplexobj(mass) else float
        if densities:
            D, lengths = self._density_arrays(graph, row, densities, dtype)
        else:  # atom-only: no stacking pass
            D, lengths = np.zeros((len(graph.edges), 1), dtype), None
        self._set(graph, (np.array([row[p.edge] for p, _ in atoms], dtype=int),
                          np.array([p.offset for p, _ in atoms], dtype=float),
                          mass.astype(D.dtype), D), atoms, lengths)

    def _set(self, graph, arrays, atoms=None, lengths=None):
        """Fill the measure from its arrays; ``lengths`` holds each edge's density
        length, negative where it stays complex.  Both it and ``atoms`` default
        to what the arrays give when each density is one real coefficient."""
        self.graph, self.arrays, self._atoms, self._densities = graph, arrays, atoms, None
        self._lengths = (arrays[3][:, 0] != 0).astype(int) if lengths is None else lengths
        arrays[3].setflags(write=False)  # the density views share it
        self._cache = {}
        return self

    @staticmethod
    def _density_arrays(graph, row, densities, dtype):
        """(m x K matrix, complex when dtype or any density is; per-edge lengths)."""
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
        if np.any(cplx[keep]):
            dtype = complex
        D = np.zeros((len(graph.edges), size[keep].max(initial=1)), dtype)
        D[rows[keep]] = (P if dtype is complex else P.real)[keep, :D.shape[1]]
        lengths = np.zeros(len(graph.edges), dtype=int)
        lengths[rows[keep]] = np.where(cplx, -size, size)[keep]
        return D, lengths

    @property
    def atoms(self):
        """Deterministically ordered list of (point, mass)."""
        if self._atoms is None:
            rows, at, mass, _ = self.arrays
            self._atoms = [(PointOnGraph(self.graph.edges[k].id, t), m)
                           for k, t, m in zip(rows.tolist(), at.tolist(), mass.tolist())]
        return list(self._atoms)

    @property
    def densities(self):
        """Edge id -> ascending density coefficients, read-only views of the matrix."""
        if self._densities is None:
            D, lengths = self.arrays[3], self._lengths.tolist()
            self._densities = {eid: (D[k] if n < 0 else D[k].real)[:abs(n)]
                               for eid, k in sorted(self.graph.edge_arrays[0].items())
                               if (n := lengths[k])}
        return self._densities

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
        return len(self.arrays[0])

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
    arrays = np.zeros(0, int), np.zeros(0), np.zeros(0), np.full((len(graph.edges), 1), c)
    return Measure.__new__(Measure)._set(graph, arrays)


def canonical_measure(graph):
    """Vertex masses 1 - valence/2 plus edge densities 1/(L(e) + R(e)).

    Each vertex's atom sits at its first incidence, the atoms in sorted
    vertex order.  R(e) is the removed-edge resistance; the densities are
    read from the resistance kernel, and bridges get density 0.  The total
    mass is asserted to be 1.
    """
    _, L, ends = graph.edge_arrays
    n = len(graph.vertices)
    mass = 1.0 - 0.5 * np.bincount(ends.ravel(), minlength=n)
    order = np.array(sorted(range(n), key=graph.vertices.__getitem__), dtype=int)
    order = order[mass[order] != 0.0]
    k, end = np.divmod(graph._first_ends[order], 2)
    kernel = circuit.resistance_kernel(graph)
    mu = Measure.__new__(Measure)._set(graph, (k, np.where(end == 1, L[k], 0.0), mass[order],
                                               kernel._inv[:, None].copy()))
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
