"""Dense real linear algebra kernel for small, well-scaled matrices.

Everything operates on plain float64 numpy arrays. Factorizations are
implemented directly rather than delegated: Householder QR with optional
column pivoting, Hessenberg reduction followed by Francis double-shift QR
iteration for general (possibly complex) spectra, and the Hessenberg-reduced
Gram plus Sturm bisection for spectral norms. The QR iteration follows
LAPACK's dlahqr with eigenvalues only: small dense bulge reflectors on the
active window, explicit shifts and the offset exceptional shift, and
dlanv2's discriminant for 2x2 blocks. This keeps the numerical
behavior fully under our control at the desk scale this library targets (a
few hundred rows).
"""

import math

import numpy as np

# Relative threshold shared by every rank decision in the package.
RANK_TOL = 1e-10


class NoConvergenceError(RuntimeError):
    """QR eigenvalue iteration exhausted its sweep budget."""


def _as_matrix(a):
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def _house_vec(x):
    """Householder vector v (v[0] = 1) and coefficient beta for a column x.

    (I - beta v v^T) x is a multiple of e1. beta = 0 means no reflection is
    needed (x already has zero tail).
    """
    v = np.array(x, dtype=float)
    x0 = v.item(0)
    tail = v[1:]
    sigma = float(np.dot(tail, tail))
    v[0] = 1.0
    if sigma == 0.0:
        return v, 0.0
    # Python floats round the scalar steps as numpy scalars do, for less overhead.
    mu = float(np.hypot(x0, math.sqrt(sigma)))
    if x0 <= 0.0:
        v0 = x0 - mu
    else:
        v0 = -sigma / (x0 + mu)
    beta = 2.0 * v0 * v0 / (sigma + v0 * v0)
    tail /= v0
    return v, beta


def _reflect_rows(x, v, beta):
    """x <- (I - beta v v^T) x in place, for a view x of the matrix updated.

    v[:, None] * w forms the very products np.outer(v, w) does, without its
    wrapper, so every update keeps the bits of the outer-product form.
    """
    x -= beta * (v[:, None] * (v @ x))


def _reflect_cols(x, v, beta):
    """x <- x (I - beta v v^T) in place, the right-hand twin of _reflect_rows."""
    x -= beta * ((x @ v)[:, None] * v)


def qr(a, pivoting=False):
    """Householder QR factorization, optionally with column pivoting: the one
    Householder loop of the package.

    Returns (q, r, perm) with q orthogonal (full, m x m), r upper
    trapezoidal, and q @ r == a[:, perm]. Without pivoting perm is the
    identity. With pivoting the diagonal of r has non-increasing magnitude,
    which makes the factorization rank-revealing for the matrices handled
    here. Each reflection is applied to r from the left and accumulated in
    q from the right.

    An a far from 1 in scale, with max|a| in [2^(e-1), 2^e) for |e| > 500,
    is reduced as 2^-e a and r scaled back: both steps are exact, so the
    squared column norms neither underflow nor overflow, and q and perm are
    those of 2^-e a. Any other a is reduced as it is. An r that overflows
    when scaled back is a ValueError, never an inf that a rank reads.
    """
    a = _as_matrix(a)
    m, n = a.shape
    e = math.frexp(np.abs(a).max())[1] if a.size else 0
    r = np.ldexp(a, -e) if abs(e) > 500 else a.copy()
    q = np.eye(m)
    perm = np.arange(n)
    for k in range(min(m, n)):
        if pivoting:
            lens = np.einsum("ij,ij->j", r[k:, k:], r[k:, k:])
            j = k + int(np.argmax(lens))
            if j != k:
                r[:, [k, j]] = r[:, [j, k]]
                perm[[k, j]] = perm[[j, k]]
        v, beta = _house_vec(r[k:, k])
        if beta != 0.0:
            _reflect_rows(r[k:, k:], v, beta)
            _reflect_cols(q[:, k:], v, beta)
            r[k + 1 :, k] = 0.0
    if abs(e) > 500:
        with np.errstate(over="ignore"):
            r = np.ldexp(r, e)
        if not np.isfinite(r).all():
            raise ValueError("matrix too large to factor: its R overflows")
    return q, r, perm


def _rank(r):
    """Numerical rank read off the diagonal of a pivoted-QR factor r: the
    count of entries above RANK_TOL times the largest, the one rank rule of
    the package."""
    diag = np.abs(np.diagonal(r))
    if diag.size == 0 or diag[0] == 0.0:
        return 0
    return int(np.count_nonzero(diag > RANK_TOL * diag[0]))


def null_space(a):
    """Orthonormal basis (as columns) of the kernel of a.

    The numerical rank is read off the pivoted-QR diagonal of a.T by
    _rank; the trailing columns of the corresponding q span the kernel.
    """
    q, r, _ = qr(np.transpose(a), pivoting=True)
    return q[:, _rank(r) :].copy()


def column_space(a):
    """Orthonormal basis (as columns) of the range of a: the leading columns
    of the pivoted QR of a, as many as _rank gives."""
    q, r, _ = qr(a, pivoting=True)
    return q[:, : _rank(r)].copy()


def _hessenberg(a):
    """Householder reduction to upper Hessenberg form (similarity)."""
    h = a.copy()
    n = h.shape[0]
    for k in range(n - 2):
        v, beta = _house_vec(h[k + 1 :, k])
        if beta == 0.0:
            continue
        _reflect_rows(h[k + 1 :, k:], v, beta)
        _reflect_cols(h[:, k + 1 :], v, beta)
        h[k + 2 :, k] = 0.0
    return h


def _eig2x2(a, b, c, d):
    """Closed-form eigenvalues of [[a, b], [c, d]] as a conjugate-safe pair.

    The discriminant is dlanv2's ((a - d)/2)^2 + b c, not p^2 - det, which
    cancels when the two eigenvalues are close.
    """
    p = 0.5 * (a + d)
    half = 0.5 * (a - d)
    disc = half * half + b * c
    if disc >= 0.0:
        q = math.sqrt(disc)
        l1 = p + q if p >= 0.0 else p - q
        l2 = (a * d - b * c) / l1 if l1 != 0.0 else 0.0
        return [complex(l1), complex(l2)]
    im = math.sqrt(-disc)
    return [complex(p, im), complex(p, -im)]


def _bulge_reflector(x, y, z=0.0):
    """I - beta v v^T as a dense 3x3 array, or None when (y, z) = 0.

    v (v[0] = 1) and beta follow _house_vec's formulas for the column
    (x, y, z), in Python floats. The 2x2 reflector of a column (x, y) is the leading
    block of the 3x3 one of (x, y, 0).
    """
    sigma = y * y + z * z
    if sigma == 0.0:
        return None
    mu = math.hypot(x, math.sqrt(sigma))
    v0 = x - mu if x <= 0.0 else -sigma / (x + mu)
    beta = 2.0 * v0 * v0 / (sigma + v0 * v0)
    v1, v2 = y / v0, z / v0
    b1, b2 = beta * v1, beta * v2
    b12 = b1 * v2
    return np.array(
        [[1.0 - beta, -b1, -b2], [-b1, 1.0 - b1 * v1, -b12], [-b2, -b12, 1.0 - b2 * v2]]
    )


def _shift_pair(a, b, c, d):
    """dlahqr's double shift from the block [[a, b], [c, d]], as (re, im).

    The block is scaled by the sum of its magnitudes and solved by
    `_eig2x2`. A conjugate pair of eigenvalues gives re +- i im. A real pair
    gives its member nearer d, to be taken twice (im = 0), which is what
    lets a cluster of real eigenvalues converge.
    """
    s = abs(a) + abs(b) + abs(c) + abs(d)
    if s == 0.0:
        return 0.0, 0.0
    d /= s
    l1, l2 = _eig2x2(a / s, b / s, c / s, d)
    if l1.imag != 0.0:
        return l1.real * s, l1.imag * s
    near = l1 if abs(l1.real - d) <= abs(l2.real - d) else l2
    return near.real * s, 0.0


def _francis_sweep(h, lo, hi, exceptional):
    """One implicit double-shift QR sweep on the active window h[lo:hi+1, lo:hi+1].

    The shifts are dlahqr's `_shift_pair` of the trailing 2x2 block or, in
    an exceptional sweep, of dlahqr's offset block [[h11, -0.4375 s],
    [s, h11]], s = |h[hi, hi-1]| + |h[hi-1, hi-2]| and h11 = 0.75 s +
    h[hi, hi], which breaks stalled cycles. The first column of the double
    shift is formed from the explicit shifts, scaled as dlahqr scales it.
    As dlahqr does when only eigenvalues are wanted, each bulge reflector is
    applied to the window alone: from the left to the columns max(lo, j-1)
    to hi of its three rows, from the right to the rows lo to min(j+3, hi)
    of its three columns, each as one small dense product. The scalars are
    Python floats read with h.item.
    """
    if exceptional:
        s = abs(h.item(hi, hi - 1)) + abs(h.item(hi - 1, hi - 2))
        d = 0.75 * s + h.item(hi, hi)
        re, im = _shift_pair(d, -0.4375 * s, s, d)
    else:
        a, b = h.item(hi - 1, hi - 1), h.item(hi - 1, hi)
        c, d = h.item(hi, hi - 1), h.item(hi, hi)
        re, im = _shift_pair(a, b, c, d)
    h00, h10 = h.item(lo, lo), h.item(lo + 1, lo)
    s = abs(h00 - re) + abs(im) + abs(h10)
    h10 /= s
    x = h10 * h.item(lo, lo + 1) + (h00 - re) * ((h00 - re) / s) + im * (im / s)
    y = h10 * (h00 + h.item(lo + 1, lo + 1) - re - re)
    z = h10 * h.item(lo + 2, lo + 1)
    s = abs(x) + abs(y) + abs(z)
    x, y, z = x / s, y / s, z / s
    for j in range(lo, hi - 1):
        r = _bulge_reflector(x, y, z)
        if r is not None:
            c0, r1 = max(lo, j - 1), min(j + 4, hi + 1)
            h[j : j + 3, c0 : hi + 1] = r @ h[j : j + 3, c0 : hi + 1]
            h[lo:r1, j : j + 3] = h[lo:r1, j : j + 3] @ r
        if j > lo:
            h[j + 1, j - 1] = 0.0
            h[j + 2, j - 1] = 0.0
        x = h.item(j + 1, j)
        y = h.item(j + 2, j)
        z = h.item(j + 3, j) if j < hi - 2 else 0.0
    r = _bulge_reflector(x, y)
    if r is not None:
        r = r[:2, :2]
        c0 = max(lo, hi - 2)
        h[hi - 1 : hi + 1, c0 : hi + 1] = r @ h[hi - 1 : hi + 1, c0 : hi + 1]
        h[lo : hi + 1, hi - 1 : hi + 1] = h[lo : hi + 1, hi - 1 : hi + 1] @ r
    h[hi, hi - 2] = 0.0


def general_eigenvalues(a):
    """All eigenvalues of a real square matrix, closed under conjugation.

    Hessenberg reduction followed by implicit double-shift (Francis) QR
    iteration on the active window h[lo:hi+1, lo:hi+1], the trailing block
    above the last small subdiagonal entry, as `_francis_sweep` describes:
    dlahqr's shifts, with its offset exceptional pair every tenth sweep
    without a deflation. 1x1 and 2x2 trailing blocks are solved in closed
    form as they deflate, the 2x2 by `_eig2x2` with dlanv2's discriminant,
    which keeps close eigenvalues to round-off. Raises NoConvergenceError
    if the budget of 100 n sweeps is exhausted, which does not happen for
    the well-scaled inputs this package produces. a is first scaled by the power of two 2^-e with
    max|a| in [2^(e-1), 2^e), as in operator_norm, and the eigenvalues are
    scaled back: both steps are exact, so a tiny or huge a neither
    underflows nor overflows in the shift polynomial.
    """
    a = _as_matrix(a)
    n = a.shape[0]
    if a.shape[1] != n:
        raise ValueError("matrix must be square")
    if n == 0:
        return []
    if n == 1:
        return [complex(a[0, 0])]
    e = int(np.frexp(np.max(np.abs(a)))[1])
    h = _hessenberg(np.ldexp(a, -e))
    scale = float(np.linalg.norm(h)) or 1.0
    eps = float(np.finfo(float).eps)
    eigs = []
    hi = n - 1
    budget = 100 * n
    sweeps = 0
    stall = 0
    while hi >= 0:
        if hi == 0:
            eigs.append(complex(h[0, 0]))
            break
        lo = hi
        while lo > 0:
            # Zeroing a subdiagonal below eps * ||H||_F is a backward-stable
            # perturbation: scale is ||H||_F taken once at entry, which the
            # full similarity would preserve (the sweeps update the window
            # only, so the blocks of h outside it go stale). The norm floor
            # is what lets clusters of close eigenvalues deflate once they
            # have converged to round-off level.
            small = eps * max(abs(h.item(lo - 1, lo - 1)) + abs(h.item(lo, lo)), scale)
            if abs(h.item(lo, lo - 1)) <= small:
                h[lo, lo - 1] = 0.0
                break
            lo -= 1
        if lo == hi:
            eigs.append(complex(h[hi, hi]))
            hi -= 1
            stall = 0
        elif lo == hi - 1:
            eigs.extend(_eig2x2(h[lo, lo], h[lo, lo + 1], h[lo + 1, lo], h[lo + 1, lo + 1]))
            hi -= 2
            stall = 0
        else:
            sweeps += 1
            stall += 1
            if sweeps > budget:
                raise NoConvergenceError(f"no deflation after {budget} QR sweeps")
            _francis_sweep(h, lo, hi, exceptional=(stall % 10 == 0))
    return [complex(math.ldexp(lam.real, e), math.ldexp(lam.imag, e)) for lam in eigs]


def _all_below(d, e2, x, pivmin):
    """Whether every eigenvalue of the symmetric tridiagonal (d, e) lies
    below x: Sturm's test, with e2 the squared off-diagonal.

    True when every pivot of the LDL^T factorization of T - x I is negative;
    it stops at the first pivot that is not. A pivot of magnitude at most
    pivmin is replaced by -pivmin, as in LAPACK's dstebz, so the recurrence
    never divides by zero.
    """
    q = 1.0
    for di, ei2 in zip(d, e2):
        q = di - x - ei2 / q
        if abs(q) <= pivmin:
            q = -pivmin
        if q >= 0.0:
            return False
    return True


def _largest_eigenvalue(t):
    """Largest eigenvalue of a symmetric tridiagonal t by Sturm bisection.

    Bisects the Gershgorin interval down to the last float: the width stops
    at 2 eps max|end| or when the midpoint meets an end.
    """
    d = np.diagonal(t).tolist()
    e = np.abs(np.diagonal(t, -1)).tolist()
    n = len(d)
    e2 = [0.0] + [x * x for x in e]
    radius = [a + b for a, b in zip([0.0] + e, e + [0.0])]
    lo = min(di - r for di, r in zip(d, radius))
    hi = max(di + r for di, r in zip(d, radius))
    eps = float(np.finfo(float).eps)
    pivmin = float(np.finfo(float).tiny) * max(1.0, max(e2))
    # Widen the bracket past the rounding of the Gershgorin sums (dstebz).
    pad = 2.1 * (max(abs(lo), abs(hi)) * eps * n + 2.0 * pivmin)
    lo, hi = lo - pad, hi + pad
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi or hi - lo <= 2.0 * eps * max(abs(lo), abs(hi)):
            return mid
        if _all_below(d, e2, mid, pivmin):
            hi = mid
        else:
            lo = mid


def operator_norm(a):
    """Spectral norm sqrt(lambda_max(a^T a)), without eigenvectors.

    a is first scaled by the power of two 2^-e with max|a| in
    [2^(e-1), 2^e), which is exact and keeps the Gram matrix clear of
    underflow and overflow. The Gram matrix on the smaller side is reduced
    by _hessenberg, which leaves a symmetric matrix tridiagonal, and its
    largest eigenvalue is found by Sturm bisection.
    """
    a = _as_matrix(a)
    if a.size == 0 or not a.any():
        return 0.0
    e = int(np.frexp(np.max(np.abs(a)))[1])
    a = np.ldexp(a, -e)
    g = a.T @ a if a.shape[0] >= a.shape[1] else a @ a.T
    g = 0.5 * (g + g.T)
    lam = _largest_eigenvalue(_hessenberg(g))
    return float(np.ldexp(np.sqrt(max(lam, 0.0)), e))


def kron_lift(z, d):
    """Blockwise lift z -> z (x) I_d: every entry becomes a d x d scalar block."""
    if d < 1:
        raise ValueError("block size d must be at least 1")
    z = _as_matrix(z)
    n, m = z.shape
    # The products np.kron forms, signed zeros included, without its overhead.
    return (z[:, None, :, None] * np.eye(d)[None, :, None, :]).reshape(n * d, m * d)
