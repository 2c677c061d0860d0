"""Shared numerical kernels: grounded solves, nullspaces, the stacked real
root finder, row-wise Horner evaluation, polynomial shifts, and the per-edge
read view of the piecewise polynomials that circuit.EdgeTable holds."""

from __future__ import annotations

import math

import numpy as np


class NumericError(RuntimeError):
    """Raised when a numerical routine cannot meet its accuracy contract."""


DEFAULT_RANK_TOL = 1e-8
DEFAULT_ROOT_TOL = 1e-12
GOLDEN_MAX_ITER = 100


def solve_grounded(Q, b, grounded, tol=1e-12):
    """Solve Q v = b with v[grounded] = 0 for a connected-graph Laplacian Q.

    b is one right-hand side or a matrix of them, one per column; each must
    sum to zero.  The grounded row/column is removed, the reduced system
    solved densely, and the residual checked against the backward-error
    scale ||Q|| ||v|| + ||b|| (infinity norms), which a stable solve meets
    whatever the spread of the conductances.
    """
    Q = np.asarray(Q, dtype=float)
    b = np.asarray(b, dtype=float)
    n = Q.shape[0]
    if Q.shape != (n, n) or b.shape[:1] != (n,) or b.ndim > 2:
        raise ValueError("shape mismatch")
    if not np.all(np.isfinite(Q)):
        raise NumericError("grounded solve failed: conductance not finite")
    keep = np.arange(n) != grounded
    v = np.zeros(b.shape)
    try:
        v[keep] = np.linalg.solve(Q[keep[:, None] & keep].reshape(n - 1, n - 1), b[keep])
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"grounded solve failed: {exc}") from None
    inf = np.inf
    residual = np.linalg.norm(Q @ v - b, inf)
    scale = np.linalg.norm(Q, inf) * np.linalg.norm(v, inf) + np.linalg.norm(b, inf)
    # written as a negated <= so that a nan residual also fails
    if not residual <= tol * scale:
        raise NumericError(f"grounded solve residual {residual:g} exceeds tolerance")
    return v


def nullspace_basis(M, rank_tol=DEFAULT_RANK_TOL):
    """Orthonormal basis of the numerical nullspace via SVD.

    Vectors whose singular value is below rank_tol times the largest singular
    value are kept; a zero matrix yields the full space.
    """
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return []
    _, s, vh = np.linalg.svd(M)
    smax = s[0] if s.size else 0.0
    if smax == 0.0:
        return [vh[i] for i in range(vh.shape[0])]
    ns = [vh[i] for i in range(vh.shape[0]) if i >= s.size or s[i] < rank_tol * smax]
    return ns


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
    scales = np.max(np.abs(M), axis=-1)
    scales[scales == 0.0] = 1.0
    return M / scales[..., None], scales


def real_roots_in_intervals(coeffs, lo, hi, tol=1e-12):
    """Real roots of each row of coeffs (ascending, real or complex) inside
    its interval (lo[i], hi[i]), as (row index, root) arrays ordered by row
    and then by root.  The rows of each trimmed degree share one stacked
    companion-matrix eigvals.  A zero counts when its imaginary part is
    below tol * max(|lo|, |hi|) and its real part is more than tol * (hi -
    lo) from either end, so that the tolerance scales with the interval."""
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
    end_tol = tol * (b - a)
    keep = ((np.abs(roots.imag) < tol * np.maximum(np.abs(a), np.abs(b)))
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


class PiecewisePoly:
    """Piecewise polynomial on [breaks[0], breaks[-1]], one coefficient array
    (ascending, in the global coordinate) per piece: the per-edge read view
    of an EdgeTable (circuit.EdgeTable), which does the algebra."""

    def __init__(self, breaks, coeffs):
        self.breaks = np.asarray(breaks, dtype=float)
        if self.breaks.ndim != 1 or self.breaks.size < 2:
            raise ValueError("need at least one piece")
        if np.any(np.diff(self.breaks) <= 0):
            raise ValueError("breakpoints must strictly increase")
        if len(coeffs) != self.breaks.size - 1:
            raise ValueError("one coefficient array per piece")
        self.coeffs = []
        for c in coeffs:
            arr = np.atleast_1d(np.asarray(c))
            if not np.iscomplexobj(arr):
                arr = arr.astype(float)
            self.coeffs.append(arr)
        width = max(map(len, self.coeffs))  # zero-padded rows evaluate alike
        self._table = np.array([np.pad(c, (0, width - len(c))) for c in self.coeffs])

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        idx = np.clip(np.searchsorted(self.breaks, t, side="right") - 1, 0, len(self.coeffs) - 1)
        return polyval_rows(self._table[idx.ravel()], t.ravel()).reshape(t.shape)[()]
