"""Graph splitting operators on the lifted space and their certificates.

Given a graph pair (G, G') and one subspace per node, the fixed-point map
acts on n-1 stacked copies of the ambient space. It is assembled both as a
dense matrix T = I - C, with C = Zbar^T M^{-1} P Zbar, and as a matrix-free
forward-substitution sweep; the two routes are kept in agreement by tests
and serve as each other's oracle.

Certificates quantify how far T is from being normal (T^T T = T T^T) and
from being iso-averaged, the average of an isometry and the identity
(2 T^T T = T + T^T). Iso-averagedness is what makes the relaxed map's
convergence rate an explicit function of the relaxation parameter, and it
holds for every choice of node subspaces exactly when G = G'.

One rule turns a quantity into a verdict against ||T||: a defect counts as
zero up to DEFECT_TOL (1 + ||T||^2), and an eigenvalue sits at 1 up to
EIGENVALUE_ONE_TOL (1 + ||T||). ||T|| is taken only where the bounds
0 <= ||T|| <= 2 ||T||_F cannot decide (`_NormOfT`), with the verdicts of the
exact norm. The graph-equality trials and witnesses read only the iso
verdict: `screened_iso_defect` and `screened_iso_verdict` let a Frobenius
bound decide it below a screen, and above it take the spectral norm of the
matrix `certificates` uses, so the same bits.
"""

import math
import warnings
from dataclasses import astuple, dataclass, field

import numpy as np

from . import graphs, matlin, subspaces

# Defects scale like ||T||^2, so classification thresholds do too.
DEFECT_TOL = 1e-9
EIGENVALUE_ONE_TOL = 1e-7


class SelfCheckFailedError(RuntimeError):
    """An internal algebraic identity failed beyond tolerance (kernel bug)."""


@dataclass(frozen=True, eq=False)
class SplittingOperator:
    """Dense operator plus the ingredients of its matrix-free form."""

    n: int
    d: int
    T: np.ndarray
    Z: np.ndarray
    graph_pair: graphs.GraphPair
    spaces: object  # ProductSubspace

    @property
    def size(self):
        return self.d * (self.n - 1)

    @property
    def C(self):
        return np.eye(self.size) - self.T


def build(graph_pair, spaces, z=None):
    """Assemble the splitting operator for a graph pair and node subspaces.

    The block map is M = P Bbar P + (I - P) on the n-fold product space: P
    is the block-diagonal projector of the product subspace and Bbar the
    lift of the update matrix B of G. M acts as the identity on the
    orthogonal complement and is invertible thanks to the forward
    orientation of the graph edges.

    One solve gives X = M^{-1} P Zbar, and C = Zbar^T X. The build checks
    that solve and forms no inverse: X must stay in the product subspace,
    ||X - P X||_F, and leave a small residual, ||M X - P Zbar||_F, both
    within 1e-9 (1 + ||M||_F) (1 + ||X||_F). A failure signals a kernel
    bug, not bad input.

    z defaults to the QR-based Laplacian factor of the subgraph; a custom
    factor (for instance a tree incidence matrix) may be supplied as long
    as z z^T reproduces the subgraph Laplacian. Z O for an orthogonal O is
    one, and its C is Obar^T C Obar with Obar = O (x) I_d, so spectra and
    defects do not depend on the factorization of the Laplacian.
    """
    n = graph_pair.g.n
    d = spaces.ambient
    if spaces.n != n:
        raise ValueError("need exactly one subspace per node")
    if n < 2:
        raise ValueError("need at least two nodes")
    _, _, _, b = graphs.matrices(graph_pair.g)
    if z is None:
        z = graphs.laplacian_factor(graph_pair.gp)
    else:
        z = np.asarray(z, dtype=float)
        if z.shape != (n, n - 1):
            raise ValueError(f"Z must be {n} x {n - 1}, got {z.shape}")
        _, _, lap_sub, _ = graphs.matrices(graph_pair.gp)
        if np.linalg.norm(z @ z.T - lap_sub) > 1e-9 * (1.0 + np.linalg.norm(lap_sub)):
            raise ValueError("Z Z^T does not reproduce the subgraph Laplacian")

    p = spaces.projector()
    zbar = matlin.kron_lift(z, d)
    m = p @ matlin.kron_lift(b, d) @ p + (np.eye(p.shape[0]) - p)
    pz = p @ zbar
    x = np.linalg.solve(m, pz)
    t = np.eye((n - 1) * d) - zbar.T @ x

    tol = 1e-9 * (1.0 + np.linalg.norm(m)) * (1.0 + np.linalg.norm(x))
    # (I - P) M = I - P, so the defect is at most the residual: it goes first
    # to name a solve that leaves the subspace.
    defect = np.linalg.norm(x - p @ x)
    if defect > tol:
        raise SelfCheckFailedError(f"block-map inverse leaves the product subspace ({defect:.3e})")
    residual = np.linalg.norm(m @ x - pz)
    if residual > tol:
        raise SelfCheckFailedError(f"block-map inverse misses P Zbar (residual {residual:.3e})")

    return SplittingOperator(n=n, d=d, T=t, Z=z, graph_pair=graph_pair, spaces=spaces)


def apply_iterative(op, v):
    """One application of the operator by forward substitution.

    Returns (v_next, xs) where xs are the n per-node points: each node
    projects a weighted combination of its upstream points and its slice of
    the lifted input, legal in one sweep because every edge points forward.
    Agrees with the dense matrix to round-off.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (op.size,):
        raise ValueError(f"expected a vector of length {op.size}")
    vmat = v.reshape(op.n - 1, op.d)
    zv = op.Z @ vmat
    g = op.graph_pair.g
    degrees, in_neighbors = g.degrees().tolist(), g.in_neighbors()
    xs = []
    for i in range(op.n):
        deg = degrees[i]
        acc = zv[i] / deg
        for h in in_neighbors[i]:
            acc = acc + (2.0 / deg) * xs[h]
        xs.append(op.spaces.factors[i].project(acc))
    xmat = np.stack(xs)
    v_next = vmat - op.Z.T @ xmat
    return v_next.ravel(), xs


def _checked(t):
    """t as a float matrix, checked at entry: 2-d, square and finite."""
    t = np.asarray(t, dtype=float)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValueError(f"t must be a square 2-d array, got shape {t.shape}")
    if not np.isfinite(t).all():
        raise ValueError("t must have finite entries")
    return t


def relax(t, theta):
    """theta t + (1 - theta) I; fixed points are preserved for theta != 0."""
    t = _checked(t)
    return theta * t + (1.0 - theta) * np.eye(t.shape[0])


@dataclass(frozen=True)
class Certificates:
    normality_defect: float
    iso_defect: float
    is_normal: bool
    is_iso_averaged: bool


class _NormOfT:
    """||T||_2 as the classification rule reads it: bounded by 0 and
    2 ||T||_F, and taken at most once, only where the bounds cannot decide.

    The bounds hold for the computed norms: ||T||_2 <= ||T||_F, and the
    factor 2 covers the rounding of both, as in `fix_basis`'s band. Where
    ||T||_F underflows, ||T||_2 is far below machine epsilon, so 1 + ||T||_2
    rounds to 1 as 1 + 0 does.
    """

    def __init__(self, t):
        self._t = t
        self._upper = 2.0 * float(np.linalg.norm(t))
        self._exact = None

    def within(self, x, tol, squared):
        """Whether x <= tol (1 + ||T||^2) if squared, else x <= tol (1 + ||T||):
        the one classification rule of the package.

        Rounding is monotone, so the computed threshold lies between tol and
        its value at 2 ||T||_F. An x at most tol is within and an x above
        that value is not, with no spectral norm; only in between is ||T||_2
        taken. Either way the verdict is that of the exact norm.
        """
        if x <= tol:
            return True
        if x > _threshold(tol, self._upper, squared):
            return False
        if self._exact is None:
            self._exact = matlin.operator_norm(self._t)
        return x <= _threshold(tol, self._exact, squared)


def _threshold(tol, nrm, squared):
    return tol * (1.0 + (nrm * nrm if squared else nrm))


def _negligible(defect, norm):
    """Whether a defect counts as zero: at most DEFECT_TOL (1 + ||T||^2),
    decided by `norm`, the `_NormOfT` of T."""
    return norm.within(defect, DEFECT_TOL, squared=True)


def _iso_matrix(t, gram):
    """A = 2 T^T T - T - T^T, whose spectral norm is the iso defect."""
    return 2.0 * gram - t - t.T


def certificates(t):
    """Structural defects of a square matrix and their verdicts.

    The defects are the spectral norms of T^T T - T T^T and of
    2 T^T T - T - T^T; each counts as zero up to DEFECT_TOL (1 + ||T||^2),
    with ||T|| taken only where its bounds cannot decide (`_NormOfT`).
    The isometry defect of 2T - I is 2 iso_defect, since
    (2T - I)^T (2T - I) - I = 2 (2 T^T T - T - T^T).
    """
    t = _checked(t)
    gram = t.T @ t
    normality = matlin.operator_norm(gram - t @ t.T)
    iso = matlin.operator_norm(_iso_matrix(t, gram))
    norm = _NormOfT(t)
    return Certificates(normality, iso, _negligible(normality, norm), _negligible(iso, norm))


def screened_iso_defect(t, tol):
    """The iso defect of T where it may exceed tol, else a bound at most tol / 2.

    With A = 2 T^T T - T - T^T, ||A||_2 <= ||A||_F. So when 2 ||A||_F <= tol
    (the factor 2 covers the rounding of both computed norms, as in
    `fix_basis`'s band) the defect is at most tol, and the Frobenius bound
    ||A||_F is returned in its place, with no spectral norm. Otherwise the
    spectral norm of the same A is returned: the iso defect of
    `certificates`, bit for bit.
    """
    t = _checked(t)
    a = _iso_matrix(t, t.T @ t)
    bound = float(np.linalg.norm(a))
    return bound if 2.0 * bound <= tol else matlin.operator_norm(a)


def screened_iso_verdict(t):
    """(defect, is_iso_averaged): the iso verdict of `certificates`, with the
    defect screened at DEFECT_TOL by `screened_iso_defect`.

    A bound at most DEFECT_TOL / 2 decides "iso-averaged" with no norm, as
    the exact defect would. Above the screen the defect is that of
    `certificates`, bit for bit, and so is its verdict.
    """
    t = _checked(t)
    iso = screened_iso_defect(t, DEFECT_TOL)
    return iso, _negligible(iso, _NormOfT(t))


def fix_basis(t):
    """Orthonormal basis of the fixed subspace ker(T - I).

    Ranks T - I at a threshold tied to the scale of T itself: when T is the
    identity up to round-off, every direction is fixed, which a rank
    decision relative to the (noise-level) difference matrix would miss.

    That identity test, ||T - I||_2 <= RANK_TOL (1 + ||T||_2), can only pass
    when ||T - I||_F <= sqrt(N) RANK_TOL (1 + ||T||_F), because
    ||A||_2 >= ||A||_F / sqrt(N) and ||T||_2 <= ||T||_F on N x N matrices.
    The Frobenius norms are cheap, so the two spectral norms are taken only
    inside that band, widened by a factor 2 for the rounding of the computed
    norms; outside it T - I goes straight to the null-space routine.
    """
    t = _checked(t)
    n = t.shape[0]
    delta = t - np.eye(n)
    band = 2.0 * math.sqrt(n) * matlin.RANK_TOL * (1.0 + np.linalg.norm(t))
    if np.linalg.norm(delta) <= band and (
        matlin.operator_norm(delta) <= matlin.RANK_TOL * (1.0 + matlin.operator_norm(t))
    ):
        return np.eye(n)
    return matlin.null_space(delta)


@dataclass(frozen=True)
class SpectralReport(Certificates):
    eigenvalues: tuple  # complex, sorted by (re, im)
    eigenvalues_off_one: tuple  # the eigenvalues not identified with 1, same order
    fix_dim: int
    rho1: float
    fixed_basis: np.ndarray = field(compare=False, repr=False)  # the fix_basis of T


def spectral_report(t):
    """Eigenvalues, fixed-subspace dimension, subdominant radius, and flags.

    Extends the `certificates` record. The subdominant radius is the largest
    modulus of the eigenvalues off 1 (farther than 1e-7 (1 + ||T||), by the
    rule of `_NormOfT`), with 0 as the floor when none remain. When the map
    is classified iso-averaged every eigenvalue must sit on the circle of
    radius 1/2 centered at 1/2; a violation means the eigensolver and the
    certificate disagree, which is reported as a self-check failure.
    """
    t = _checked(t)
    eigs = sorted(matlin.general_eigenvalues(t), key=lambda lam: (lam.real, lam.imag))
    cert = certificates(t)
    basis = fix_basis(t)
    fix_dim = basis.shape[1]
    norm = _NormOfT(t)
    off_one = tuple(
        lam for lam in eigs if not norm.within(abs(lam - 1.0), EIGENVALUE_ONE_TOL, squared=False)
    )
    at_one = len(eigs) - len(off_one)
    if at_one != fix_dim:
        warnings.warn(
            f"eigenvalues at 1 ({at_one}) disagree with the fixed-subspace "
            f"dimension ({fix_dim}); the map may be defective at 1",
            RuntimeWarning,
            stacklevel=2,
        )
    if cert.is_iso_averaged:
        worst = max((abs(abs(lam - 0.5) - 0.5) for lam in eigs), default=0.0)
        if worst > EIGENVALUE_ONE_TOL:
            raise SelfCheckFailedError(
                f"iso-averaged map has an eigenvalue off the half-circle (distance {worst:.3e})"
            )
    rho1 = max((abs(lam) for lam in off_one), default=0.0)
    return SpectralReport(*astuple(cert), tuple(eigs), off_one, fix_dim, rho1, basis)


def predicted_rate(rho1, theta):
    """Linear rate of the relaxed map from the unrelaxed subdominant radius.

    sqrt(theta (2 - theta) rho1^2 + (1 - theta)^2): equal to rho1 at
    theta = 1, symmetric under theta -> 2 - theta, and strictly increasing
    in |theta - 1|. Valid for maps whose eigenvalues lie on the half-circle
    (iso-averaged maps).
    """
    if not 0.0 < theta < 2.0:
        raise ValueError("relaxation parameter must lie in (0, 2)")
    if not 0.0 <= rho1 < 1.0:
        raise ValueError("subdominant radius must lie in [0, 1)")
    return float(np.sqrt(theta * (2.0 - theta) * rho1 * rho1 + (1.0 - theta) ** 2))


def dr_rate(u1, u2, theta):
    """Douglas-Rachford rate for two subspaces: the Friedrichs cosine relaxed."""
    return predicted_rate(subspaces.friedrichs_cosine(u1, u2), theta)
