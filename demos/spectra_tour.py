"""Eigenvalues of the measure-coupled Laplacian, from intervals to solids.

The problem on each graph is Delta f = lambda (f dx - (integral f dx) mu)
with matching conditions at the vertices; eigenvalues come out of a
secular determinant scanned and refined in gamma = sqrt(lambda).
"""

import math
import time

from metragraph import (
    CPAFunction,
    Measure,
    builtin_graph,
    canonical_measure,
    dirac,
    eigenfunctions_at,
    find_eigenvalues,
    lebesgue_measure,
    mercer_partial_sum,
    rayleigh_quotient,
    tau_constant,
)

PI = math.pi


def spectrum_line(pairs):
    return ", ".join(f"{p.eigenvalue:.6g}({p.multiplicity})" for p in pairs)


# interval with mu = dx: plain Neumann spectrum n^2 pi^2
g = builtin_graph("interval")
dx = lebesgue_measure(g)
pairs = find_eigenvalues(g, dx, 5 * PI + 0.3)
print("interval, mu = dx:")
print(f"  {spectrum_line(pairs)}")
print(f"  n^2 pi^2:  {', '.join(f'{(n * PI) ** 2:.6g}' for n in range(1, 6))}")

# point mass at one end shifts the spectrum to odd quarter-waves
delta0 = dirac(g, g.point_at_vertex("a"))
pairs = find_eigenvalues(g, delta0, 4 * PI)
print("\ninterval, mu = delta_0:")
print(f"  {spectrum_line(pairs)}   "
      f"((n pi / 2)^2, odd n: {', '.join(f'{(n * PI / 2) ** 2:.6g}' for n in (1, 3, 5, 7))})")

f = eigenfunctions_at(g, delta0, 0.5 * PI).eigenfunctions[0]
print(f"  first eigenfunction at x = 1: {abs(f.value('e1', 1.0)):.6g} "
      f"(sqrt(2) sin(pi/2) = {math.sqrt(2):.6g})")

# a signed measure: two unit atoms minus Lebesgue; still a unit measure,
# and every eigenvalue is simple
mu = Measure(g, [(g.point_at_vertex("a"), 1.0), (g.point_at_vertex("b"), 1.0)],
             {"e1": [-1.0]})
pairs = find_eigenvalues(g, mu, 4 * PI)
print("\ninterval, mu = delta_0 + delta_1 - dx:")
print(f"  {spectrum_line(pairs)}")
print(f"  reference: 2.85428, pi^2 = {PI ** 2:.6g}, 82.7731, 9 pi^2 = {9 * PI ** 2:.6g}")

# tetrahedron against uniform dx and against its own canonical measure
g = builtin_graph("tetrahedron")
start = time.perf_counter()
row = {}
for label, m in (("dx", lebesgue_measure(g, normalize=True)),
                 ("can", canonical_measure(g))):
    row[label] = find_eigenvalues(g, m, 19.1)
elapsed = time.perf_counter() - start
print(f"\ntetrahedron (total length 1, {elapsed:.2f}s for both measures):")
print(f"  tau                  = {tau_constant(g):.6g}")
print(f"  spectrum vs dx:        {spectrum_line(row['dx'])}")
print(f"  spectrum vs canonical: {spectrum_line(row['can'])}")

# Mercer: partial sums of f_n(x) f_n(y) / lambda_n converge uniformly to
# the Green's function; watch the diagonal error shrink on the circle,
# where g_dx(x, x) = 1/12
g = builtin_graph("circle")
dx = lebesgue_measure(g)
x = g.point("e1.1", 0.15)
print("\ncircle, Mercer partial sums at a fixed diagonal point:")
used = []
for p in find_eigenvalues(g, dx, 8 * PI + 0.3):
    used.append(eigenfunctions_at(g, dx, math.sqrt(p.eigenvalue)))
    err = abs(mercer_partial_sum(used, x, x) - 1.0 / 12.0)
    print(f"  through lambda = {p.eigenvalue:9.4f} ({p.multiplicity}): "
          f"error {err:.3e}")

# Rayleigh quotients of piecewise-affine trials bound lambda_1 from above
g = builtin_graph("interval")
trial = CPAFunction(g, {"a": 1.0, "b": -1.0})
q = rayleigh_quotient(g, lebesgue_measure(g), trial)
print(f"\nRayleigh quotient of the affine dipole on the interval: {q:.6g} "
      f"(above lambda_1 = pi^2 = {PI ** 2:.6g})")
