"""Grounded solves, nullspaces, minimization, roots, piecewise polys."""

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from metragraph import Measure, build_graph
from metragraph.numerics import (
    NumericError,
    PiecewisePoly,
    equilibrate_rows,
    golden_min,
    nullspace_basis,
    real_roots_in_interval,
    shift_polys,
    solve_grounded,
)


def test_solve_grounded_path_network():
    # a - b - c with conductances 2 and 1; current 1 from a to c
    Q = np.array([[2.0, -2.0, 0.0], [-2.0, 3.0, -1.0], [0.0, -1.0, 1.0]])
    v = solve_grounded(Q, np.array([1.0, 0.0, -1.0]), grounded=2)
    assert v[2] == 0.0
    assert v[0] - v[2] == pytest.approx(1.5, abs=1e-12)
    with pytest.raises(NumericError):
        solve_grounded(Q, np.array([1.0, 0.0, 0.0]), grounded=2)


def test_nullspace_basis_known_rank():
    M = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 2.0]])
    basis = nullspace_basis(M, rank_tol=1e-10)
    assert len(basis) == 1
    v = basis[0]
    assert np.linalg.norm(M @ v) < 1e-12
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_nullspace_basis_edge_cases():
    assert len(nullspace_basis(np.zeros((2, 4)))) == 4
    assert len(nullspace_basis(np.zeros((0, 3)))) == 0
    wide = np.array([[1.0, 2.0, 3.0]])
    basis = nullspace_basis(wide)
    assert len(basis) == 2
    for v in basis:
        assert abs(wide @ v) < 1e-12


def test_golden_min_absolute_tolerance():
    # the bracket shrinks below xatol even though |x| ~ 0.4, which a
    # sqrt(eps)-relative stopping rule would never reach
    x = golden_min(lambda t: (t - 0.39) ** 2, 0.0, 1.0, 1e-12)
    assert abs(x - 0.39) < 5e-12


def test_golden_min_stops_below_float_spacing():
    # near 1.1e4 the float spacing (1.8e-12) exceeds xatol, so the bracket
    # can never get narrower than xatol; the search must still end
    calls = []

    def f(t):
        calls.append(t)
        return abs(t - 11000.03)

    x = golden_min(f, 11000.0, 11000.1, 1e-12)
    assert len(calls) < 200
    assert abs(x - 11000.03) < 1e-10


def test_equilibrate_rows():
    M = np.array([[2.0, 4.0], [0.0, 0.0], [-3.0, 1.5]])
    scaled, factors = equilibrate_rows(M)
    assert np.allclose(np.max(np.abs(scaled), axis=1), [1.0, 0.0, 1.0])
    assert factors[1] == 1.0
    # rows of wildly different scale come out at unit scale
    scaled, factors = equilibrate_rows(np.diag([1e-30, 1e30]))
    np.testing.assert_array_equal(scaled, np.eye(2))
    np.testing.assert_array_equal(factors, [1e-30, 1e30])


def test_real_roots_in_interval():
    # (t - 1)(t - 2) = 2 - 3t + t^2
    assert real_roots_in_interval([2.0, -3.0, 1.0], 0.0, 3.0) == \
        pytest.approx([1.0, 2.0])
    assert real_roots_in_interval([2.0, -3.0, 1.0], 1.0, 3.0) == \
        pytest.approx([2.0])  # open interval drops the endpoint root
    assert real_roots_in_interval([5.0], 0.0, 1.0) == []


def test_piecewise_poly_algebra():
    f = PiecewisePoly([0.0, 1.0], [[0.0, 1.0]])  # t
    g = PiecewisePoly([0.0, 0.5, 1.0], [[1.0], [0.0]])  # indicator of [0, .5]
    h = (f + g) * f
    assert h(0.25) == pytest.approx(0.25 * 1.25)
    assert h(0.75) == pytest.approx(0.75 * 0.75)
    assert (f * f).integral() == pytest.approx(1.0 / 3.0, abs=1e-14)
    assert (f * f).integral(0.5, 1.0) == pytest.approx(7.0 / 24.0, abs=1e-14)
    assert f.derivative()(0.9) == pytest.approx(1.0)


def test_piecewise_poly_abs_and_extremes():
    f = PiecewisePoly([0.0, 1.0], [[1.0, -2.0]])  # 1 - 2t, crosses at 0.5
    assert f.abs_integral() == pytest.approx(0.5, abs=1e-14)
    g = PiecewisePoly([0.0, 2.0], [[0.0, -1.0, 1.0]])  # t^2 - t
    lo, hi = g.extreme_values()
    assert lo == pytest.approx(-0.25, abs=1e-14)
    assert hi == pytest.approx(2.0, abs=1e-14)


@pytest.mark.parametrize("length", [1e-13, 1e-11, 1e-6, 1.0, 1e3, 1e8])
@pytest.mark.parametrize("factor", [1.0, 1j])
def test_roots_are_found_on_intervals_of_any_length(length, factor):
    # an absolute root tolerance of 1e-12 dropped every root on [0, 1e-13]:
    # the variation of (1 - 2t/L)/L read 0.0 and the minimum of (t - 0.3L)^2
    # read 9e-28; extreme_values reads the real part, 0 for factor 1j
    density = factor * np.array([1.0 / length, -2.0 / length**2])
    assert PiecewisePoly([0.0, length], [density]).abs_integral() == \
        pytest.approx(0.5, rel=1e-12)
    g = build_graph(["a", "b"], [("e1", "a", "b", length)])
    assert Measure(g, (), {"e1": density}).total_variation() == pytest.approx(0.5, rel=1e-12)
    square = factor * np.array([0.09 * length**2, -0.6 * length, 1.0])
    lo, hi = PiecewisePoly([0.0, length], [square]).extreme_values()
    assert lo == pytest.approx(0.0, abs=1e-15 * length**2)
    assert hi == pytest.approx(0.49 * length**2 * factor.real, rel=1e-12)


def test_piecewise_poly_validation():
    with pytest.raises(ValueError):
        PiecewisePoly([0.0], [])
    with pytest.raises(ValueError):
        PiecewisePoly([0.0, 0.0], [[1.0]])
    with pytest.raises(ValueError):
        PiecewisePoly([0.0, 1.0], [[1.0], [2.0]])


def test_shift_polys_matches_composition(rng):
    real = rng.normal(size=(8, 5))
    real[2, 3:] = 0.0  # a ragged row, zero-padded
    for c in (real, real + 1j * rng.normal(size=real.shape)):
        t0 = rng.uniform(-1.0, 1.0, size=len(c))
        for shift in (t0, 0.7):
            got = shift_polys(c, shift)
            assert got.shape == c.shape and got.dtype == c.dtype
            for row, p, t in zip(got, c, np.broadcast_to(shift, len(c))):
                want = npoly.polyval(npoly.Polynomial([t, 1.0]), p).coef  # p(t + t0)
                want = np.pad(want, (0, c.shape[1] - want.size))
                np.testing.assert_allclose(row, want, rtol=0.0, atol=1e-14)
