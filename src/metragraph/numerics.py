"""Shared numerical kernels: grounded solves, nullspaces, the stacked real
root finder, row-wise polynomial arithmetic (evaluation, shifts, derivatives,
products, definite integrals) and the per-edge read view of EdgeTable."""

from __future__ import annotations

import math

import numpy as np


class NumericError(RuntimeError):
    """Raised when a numerical routine cannot meet its accuracy contract."""


DEFAULT_RANK_TOL = 1e-8
DEFAULT_ROOT_TOL = 1e-12
GOLDEN_MAX_ITER = 100
SOLVE_RESIDUAL_TOL = 1e-12  # solve_grounded's backward-error bound
REAL_ROOT_TOL = 1e-12  # real_roots_in_intervals' relative cut


def solve_grounded(Q, b, grounded):
    """Solve Q v = b with v[grounded] = 0 for a connected-graph Laplacian Q.

    b is one right-hand side or a matrix of them, one per column; each must
    sum to zero.  The grounded row/column is removed, the reduced system
    solved densely, and the residual checked against SOLVE_RESIDUAL_TOL times
    the backward-error scale ||Q|| ||v|| + ||b|| (infinity norms), which a
    stable solve meets whatever the spread of the conductances.
    """
    Q = np.asarray(Q, dtype=float)
    b = np.asarray(b, dtype=float)
    n = Q.shape[0]
    if Q.shape != (n, n) or b.shape[:1] != (n,) or b.ndim > 2:
        raise ValueError("shape mismatch")
    def norm(x):  # np.linalg.norm(x, np.inf) of a vector or a matrix, undispatched
        return np.maximum.reduce(np.add.reduce(abs(x).reshape(n, -1), 1))
    # an entry that is not finite, or a node's sum of them, leaves ||Q|| so
    if not math.isfinite(norm_q := norm(Q)):
        raise NumericError("grounded solve failed: conductance not finite")
    keep = np.arange(n) != grounded
    v = np.zeros(b.shape)
    try:
        v[keep] = np.linalg.solve(Q[keep[:, None] & keep].reshape(n - 1, n - 1), b[keep])
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"grounded solve failed: {exc}") from None
    r = Q @ v
    r -= b
    residual = norm(r)
    # written as a negated <= so that a nan residual also fails
    if not residual <= SOLVE_RESIDUAL_TOL * (norm_q * norm(v) + norm(b)):
        raise NumericError(f"grounded solve residual {residual:g} exceeds tolerance")
    return v


def nullspace_basis(M):
    """Orthonormal basis of the numerical nullspace via SVD.

    Vectors whose singular value is below DEFAULT_RANK_TOL times the largest
    one are kept; a zero matrix yields the full space.
    """
    M = np.asarray(M, dtype=float)
    if M.size == 0:  # no rows: every vector is null
        return list(np.eye(M.shape[1]))
    _, s, vh = np.linalg.svd(M)
    return list(vh[[i >= s.size or not s[0] or s[i] < DEFAULT_RANK_TOL * s[0]
                    for i in range(len(vh))]])


def golden_min(f, a, b, xatol):
    """Golden-section minimizer honoring an absolute bracket tolerance.

    scipy's bounded Brent stops at sqrt(eps) * |x| regardless of xatol, which
    is too coarse for pinning V-shaped singular-value dips; this plain
    golden-section contraction has no relative floor.  It also stops once
    the bracket no longer shrinks (xatol below the float spacing near the
    minimum) and after GOLDEN_MAX_ITER contractions; a bracket of width w
    needs about log(w / xatol) / log(1.618) of them, 55 for w = 0.2 and
    xatol = 1e-12.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(GOLDEN_MAX_ITER):
        width = b - a
        if not width > xatol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
        if not b - a < width:
            break
    return 0.5 * (a + b)


def equilibrate_rows(M):
    """Scale each row by its max absolute entry; zero rows are left alone.
    A stack of matrices is scaled matrix by matrix.

    Returns (scaled matrix, scale factors).  Determinants of the scaled
    matrix differ from det(M) by the product of the factors, so only root
    locations carry meaning.
    """
    M = np.asarray(M, dtype=float)
    scales = np.abs(M).max(axis=-1)
    scales[scales == 0.0] = 1.0
    return M / scales[..., None], scales


def real_roots_in_intervals(coeffs, lo, hi):
    """Real roots of each row of coeffs (ascending, real or complex) inside
    its interval (lo[i], hi[i]), as (row index, root) arrays ordered by row
    and then by root.  The rows of each trimmed degree share one stacked
    companion-matrix eigvals.  A zero counts when its imaginary part is below
    tol max(|lo|, |hi|) and its real part is more than tol (hi - lo) from
    either end, tol = REAL_ROOT_TOL, so that the cut scales with the interval."""
    c = np.asarray(coeffs)
    c = c.astype(np.result_type(c, float))
    degree = np.max(np.where(c != 0, np.arange(c.shape[1]), 0), axis=1)
    rows, roots = [np.zeros(0, dtype=int)], [np.zeros(0)]
    # the degrees present; np.unique would page in its hashing code (~1 MB)
    for n in np.flatnonzero(np.bincount(degree)[1:]) + 1:
        sel = np.flatnonzero(degree == n)
        comp = np.zeros((sel.size, n, n), c.dtype)
        comp[:, np.arange(1, n), np.arange(n - 1)] = 1.0
        comp[:, :, -1] -= c[sel, :n] / c[sel, n:n + 1]
        rows.append(sel.repeat(n))
        # a 1 x 1 companion is its root, -c0 / c1, as in npoly.polyroots
        roots.append(comp.ravel() if n == 1 else np.linalg.eigvals(comp).ravel())
    rows, roots = np.concatenate(rows), np.concatenate(roots)
    a, b = np.asarray(lo, dtype=float)[rows], np.asarray(hi, dtype=float)[rows]
    end_tol = REAL_ROOT_TOL * (b - a)
    keep = ((np.abs(roots.imag) < REAL_ROOT_TOL * np.maximum(np.abs(a), np.abs(b)))
            & (a + end_tol < roots.real) & (roots.real < b - end_tol))
    order = np.lexsort((roots.real[keep], rows[keep]))
    return rows[keep][order], roots.real[keep][order]


def polyval_rows(coeffs, x):
    """Row i of coeffs (ascending) at x[i], or at every entry of the row
    x[i] of a 2-d x, by Horner's rule in npoly.polyval's order."""
    x = np.asarray(x)
    c = np.asarray(coeffs)
    c = c.reshape(c.shape[:1] + (1,) * (x.ndim - 1) + c.shape[1:])
    out = c[..., -1] + x * 0
    for k in range(c.shape[-1] - 2, -1, -1):
        out = c[..., k] + out * x
    return out


def shift_polys(coeffs, t0):
    """Ascending coefficients of p(t + t0) for every row p of coeffs (real or
    complex), each row at its own t0, or all at one scalar t0."""
    c = np.asarray(coeffs)
    t0 = np.reshape(t0, (-1, 1))
    out = np.zeros(c.shape, np.result_type(c, float))
    for k in range(c.shape[1]):  # c_k (t + t0)^k = sum_j c_k C(k, j) t0^(k-j) t^j
        j = np.arange(k + 1)
        binom = np.array([math.comb(k, i) for i in j], dtype=float)
        out[:, :k + 1] += c[:, k:k + 1] * binom * t0 ** (k - j)
    return out


def polyder_rows(coeffs):
    """Ascending coefficients of p' along the last axis, at least one."""
    if coeffs.shape[-1] < 2:
        return np.zeros(coeffs.shape[:-1] + (1,))
    return coeffs[..., 1:] * np.arange(1.0, coeffs.shape[-1])


def polymul_rows(a, b):
    """Row-wise products of the ascending polynomial rows of a and b."""
    out = np.zeros((len(a), a.shape[1] + b.shape[1] - 1), np.result_type(a, b))
    for j in range(b.shape[1]):
        out[:, j:j + a.shape[1]] += a * b[:, j:j + 1]
    return out


def integrate_rows(lo, hi, c):
    """Per row i, the integral of c[i] over [lo[i], hi[i]], by Horner on its antiderivative."""
    a = c / np.arange(1, c.shape[1] + 1)
    at_hi = at_lo = a[:, -1]
    for k in range(c.shape[1] - 2, -1, -1):
        at_hi = a[:, k] + at_hi * hi
        at_lo = a[:, k] + at_lo * lo
    return at_hi * hi - at_lo * lo


class PiecewisePoly:
    """Piecewise polynomial on [breaks[0], breaks[-1]], one coefficient row
    (ascending, in the global coordinate) per piece: the per-edge read view
    of an EdgeTable's pieces (circuit.EdgeTable), which does the algebra."""

    def __init__(self, breaks, coeffs):
        self.breaks = np.asarray(breaks, dtype=float)
        if self.breaks.ndim != 1 or self.breaks.size < 2:
            raise ValueError("need at least one piece")
        if np.any(np.diff(self.breaks) <= 0):
            raise ValueError("breakpoints must strictly increase")
        if len(coeffs) != self.breaks.size - 1:
            raise ValueError("one coefficient array per piece")
        self.coeffs = np.asarray(coeffs)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.clip(np.searchsorted(self.breaks, t, side="right") - 1, 0, len(self.coeffs) - 1)
        return polyval_rows(self.coeffs[idx.ravel()], t.ravel()).reshape(t.shape)[()]
