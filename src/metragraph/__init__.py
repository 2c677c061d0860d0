"""Harmonic analysis on metrized graphs.

Effective resistance, j-functions, Arakelov-Green's functions, the
canonical measure and tau constant, and eigenvalue problems for the
Laplacian with respect to a reference measure.
"""

from .graph_core import (
    Edge,
    MetrizedGraph,
    PointOnGraph,
    ValidationError,
    build_graph,
    builtin_graph,
    format_point,
    graph_from_json,
    load_graph,
    parse_point,
    scale_graph,
    subdivide_at,
    total_length,
    valence,
)
from .numerics import (
    NumericError,
    PiecewisePoly,
)
from .circuit import (
    ResistanceKernel,
    ResistanceProfile,
    effective_resistance,
    j_function,
    removed_edge_resistance,
    resistance_kernel,
    resistance_profile,
)
from .measure import (
    CPAFunction,
    Measure,
    canonical_measure,
    dirac,
    lebesgue_measure,
    load_measure,
    measure_from_json,
    measure_to_json,
    resolve_measure,
)
from .green import (
    GreenEvaluator,
    build_green,
    discriminant_sum,
    energy_pairing,
    tau_constant,
    trace_comparison,
    trace_of_phi,
    weak_laplacian_residual,
)
from .spectral import (
    EdgeBasisSolution,
    Eigenpair,
    SpectralProblem,
    assemble_characteristic_matrix,
    characteristic_det,
    eigenfunctions_at,
    find_eigenvalues,
    l2_inner,
    mercer_partial_sum,
    rayleigh_quotient,
)

__version__ = "0.1.0"

__all__ = [
    "CPAFunction",
    "Edge",
    "EdgeBasisSolution",
    "Eigenpair",
    "GreenEvaluator",
    "Measure",
    "MetrizedGraph",
    "NumericError",
    "PiecewisePoly",
    "PointOnGraph",
    "ResistanceKernel",
    "ResistanceProfile",
    "SpectralProblem",
    "ValidationError",
    "assemble_characteristic_matrix",
    "build_graph",
    "build_green",
    "builtin_graph",
    "canonical_measure",
    "characteristic_det",
    "dirac",
    "discriminant_sum",
    "effective_resistance",
    "eigenfunctions_at",
    "energy_pairing",
    "find_eigenvalues",
    "format_point",
    "graph_from_json",
    "j_function",
    "l2_inner",
    "lebesgue_measure",
    "load_graph",
    "load_measure",
    "measure_from_json",
    "measure_to_json",
    "mercer_partial_sum",
    "parse_point",
    "rayleigh_quotient",
    "removed_edge_resistance",
    "resistance_kernel",
    "resistance_profile",
    "resolve_measure",
    "scale_graph",
    "subdivide_at",
    "tau_constant",
    "total_length",
    "trace_comparison",
    "trace_of_phi",
    "valence",
    "weak_laplacian_residual",
]
