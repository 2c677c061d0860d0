"""Shared numerical kernels: grounded solves, nullspaces, roots, polynomial
shifts and piecewise polynomials."""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import polynomial as npoly


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


def real_roots_in_interval(coeffs, a, b, tol=1e-12):
    """Real roots of a polynomial (ascending coeffs, real or complex) inside
    (a, b): its zeros whose imaginary part is below tol * max(|a|, |b|) and
    whose real part is more than tol * (b - a) from either end, so that the
    tolerance scales with the interval."""
    c = np.asarray(coeffs)
    c = np.trim_zeros(c.astype(np.result_type(c, float)), "b")
    if c.size <= 1:
        return []
    roots = npoly.polyroots(c)
    imag_tol, end_tol = tol * max(abs(a), abs(b)), tol * (b - a)
    out = []
    for r in roots:
        if abs(r.imag) < imag_tol and a + end_tol < r.real < b - end_tol:
            out.append(float(r.real))
    return sorted(out)


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
    (ascending, in the global coordinate) per piece.  Closed under addition,
    scaling, multiplication, differentiation, and exact integration."""

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

    def _piece_index(self, t):
        idx = np.searchsorted(self.breaks, t, side="right") - 1
        return np.clip(idx, 0, len(self.coeffs) - 1)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        tt = np.atleast_1d(t)
        idx = self._piece_index(tt)
        dtype = complex if any(np.iscomplexobj(c) for c in self.coeffs) else float
        out = np.empty(tt.shape, dtype=dtype)
        for k in range(len(self.coeffs)):
            sel = idx == k
            if np.any(sel):
                out[sel] = npoly.polyval(tt[sel], self.coeffs[k])
        return out[0] if scalar else out

    def _binary(self, other, op):
        if isinstance(other, PiecewisePoly):
            breaks = np.union1d(self.breaks, other.breaks)
            lo = max(self.breaks[0], other.breaks[0])
            hi = min(self.breaks[-1], other.breaks[-1])
            breaks = breaks[(breaks >= lo) & (breaks <= hi)]
            coeffs = []
            for a, b in zip(breaks, breaks[1:]):
                mid = 0.5 * (a + b)
                ca = self.coeffs[int(self._piece_index(mid))]
                cb = other.coeffs[int(other._piece_index(mid))]
                coeffs.append(op(ca, cb))
            return PiecewisePoly(breaks, coeffs)
        other_c = np.atleast_1d(np.asarray(other))
        return PiecewisePoly(self.breaks, [op(c, other_c) for c in self.coeffs])

    def __add__(self, other):
        return self._binary(other, npoly.polyadd)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, npoly.polysub)

    def __mul__(self, other):
        if isinstance(other, PiecewisePoly):
            return self._binary(other, npoly.polymul)
        return PiecewisePoly(self.breaks, [c * other for c in self.coeffs])

    __rmul__ = __mul__

    def derivative(self):
        return PiecewisePoly(self.breaks, [npoly.polyder(c) for c in self.coeffs])

    def integral(self, a=None, b=None):
        """Exact integral over [a, b] (default: the whole support)."""
        a = self.breaks[0] if a is None else a
        b = self.breaks[-1] if b is None else b
        total = 0.0
        for k, (lo, hi) in enumerate(zip(self.breaks, self.breaks[1:])):
            lo2, hi2 = max(lo, a), min(hi, b)
            if hi2 <= lo2:
                continue
            anti = npoly.polyint(self.coeffs[k])
            total += npoly.polyval(hi2, anti) - npoly.polyval(lo2, anti)
        return total

    def abs_integral(self):
        """Integral of |self|, splitting pieces at their real roots, where |p|
        has its kinks: exact on a real piece, and on a complex one a 24-point
        Gauss rule between the roots."""
        total = 0.0
        for c, lo, hi in zip(self.coeffs, self.breaks, self.breaks[1:]):
            cuts = [lo] + real_roots_in_interval(c, lo, hi) + [hi]
            if not np.iscomplexobj(c):
                anti = npoly.polyint(c)
                for a, b in zip(cuts, cuts[1:]):
                    total += abs(npoly.polyval(b, anti) - npoly.polyval(a, anti))
                continue
            x, w = np.polynomial.legendre.leggauss(24)
            pieces = []
            for a, b in zip(cuts, cuts[1:]):
                half = 0.5 * (b - a)
                y = np.abs(npoly.polyval(0.5 * (a + b) + half * x, c))
                if not np.all(np.isfinite(y)):
                    raise NumericError(f"piecewise polynomial not finite on [{a}, {b}]")
                pieces.append(float((half * w) @ y))
            total += math.fsum(pieces)
        return total

    def extreme_values(self):
        """(min, max) over the support, found exactly via derivative roots."""
        cands = [self(self.breaks[0])]
        for k, (lo, hi) in enumerate(zip(self.breaks, self.breaks[1:])):
            cands.append(self(hi))
            der = npoly.polyder(self.coeffs[k].real)
            for r in real_roots_in_interval(der, lo, hi):
                cands.append(npoly.polyval(r, self.coeffs[k]))
        vals = np.real(np.asarray(cands, dtype=complex))
        return float(vals.min()), float(vals.max())
