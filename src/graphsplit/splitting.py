"""Graph splitting operators on the lifted space and their certificates.

Given a graph pair (G, G') and one subspace per node, the fixed-point map
acts on n-1 stacked copies of the ambient space. It is assembled both as a
dense matrix T = I - C, by forward substitution over the nodes in their
bases (`build`), and as a matrix-free sweep applied to one vector
(`apply_iterative`); the two routes share no code, and the tests hold them
in agreement.

The report of T (`spectral_report`) quantifies how far T is from being
normal (T^T T = T T^T) and from being iso-averaged, the average of an
isometry and the identity (2 T^T T = T + T^T). Iso-averagedness is what
makes the relaxed map's convergence rate an explicit function of the
relaxation parameter, and it holds for every choice of node subspaces
exactly when G = G'. The report also holds the fixed subspace of T, its
spectrum and its subdominant radius. It is one record over T whose fields
are computed when first read: a caller pays for the fields it reads, and
each quantity is computed once per report. A defect under its floor
2 N eps (1 + ||T||_F^2), the round-off of forming its matrix, reads 0 and
takes no spectral norm: for G = G' both exact defects are 0, since an
iso-averaged T = (I + S)/2 with S orthogonal is also normal.

One rule, `_within`, turns a quantity into a verdict against ||T||: a
defect counts as zero up to DEFECT_TOL (1 + ||T||^2), an eigenvalue at 1
must lie within EIGENVALUE_ONE_TOL (1 + ||T||), and T is the identity when
||T - I|| <= RANK_TOL (1 + ||T||). Frobenius bounds decide first (`_Norm`),
and a spectral norm is taken only where they cannot, with its verdicts.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import graphs, matlin, subspaces

# Defects scale like ||T||^2, so classification thresholds do too.
DEFECT_TOL = 1e-9
EIGENVALUE_ONE_TOL = 1e-7
EPS = float(np.finfo(float).eps)


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

    Every edge points forward, so the node points X_i of the map follow by
    forward substitution over the nodes. With U_i the basis of node i, deg_i
    its degree and Zbar_i its d rows of the lift Zbar = Z (x) I_d, node i in
    order takes acc = Zbar_i + 2 sum_{h -> i} X_h, w = U_i^T acc and
    G = U_i^T U_i, and sets X_i = U_i y with y = (2 w - G w) / deg_i: one
    Newton step for G^{-1} w / deg_i, whose error O(||G - I||^2) lies below
    round-off, since a node basis is orthonormal to 1e-12. A node of
    dimension 0 has X_i = 0. Then T = I - Zbar^T X. T is the map of the spans
    of the float bases, the build forms no inverse and calls no LAPACK, and
    it checks its node steps once: the block residuals deg_i G y - w,
    stacked over the nodes, must have a Frobenius norm within
    1e-9 (1 + ||W||_F), W the stacked w. A failure signals a kernel bug or a
    basis that is not orthonormal, not bad input.

    z defaults to the QR-based Laplacian factor of the subgraph; a custom
    factor (for instance a tree incidence matrix) may be supplied as long
    as z z^T reproduces the subgraph Laplacian. Z O for an orthogonal O is
    one, and its C is Obar^T C Obar with Obar = O (x) I_d, so spectra and
    defects do not depend on the factorization of the Laplacian. The default
    factor and its lift Zbar come from one cache keyed on (graph pair, d); a
    supplied z is checked and lifted on every call.
    """
    n = graph_pair.g.n
    d = spaces.ambient
    if spaces.n != n:
        raise ValueError("need exactly one subspace per node")
    if n < 2:
        raise ValueError("need at least two nodes")
    if z is None:
        z, zbar = _lifts(graph_pair, d)
    else:
        z = np.asarray(z, dtype=float)
        if z.shape != (n, n - 1):
            raise ValueError(f"Z must be {n} x {n - 1}, got {z.shape}")
        _, _, lap_sub, _ = graphs.matrices(graph_pair.gp)
        if np.linalg.norm(z @ z.T - lap_sub) > 1e-9 * (1.0 + np.linalg.norm(lap_sub)):
            raise ValueError("Z Z^T does not reproduce the subgraph Laplacian")
        zbar = matlin.kron_lift(z, d)

    size = (n - 1) * d
    bases = [f.basis for f in spaces.factors]
    zbars = zbar.reshape(n, d, size)
    x = np.zeros((n, d, size))
    w = np.empty((sum(u.shape[1] for u in bases), size))
    r = np.empty_like(w)
    k = 0
    graph = graph_pair.g
    nodes = zip(bases, graph.degrees().tolist(), graph.in_neighbors())
    for i, (u, deg, sources) in enumerate(nodes):
        m = u.shape[1]
        if not m:
            continue
        acc = zbars[i]
        for h in sources:
            acc = acc + 2.0 * x[h]
        wi = w[k : k + m] = u.T @ acc
        gram = u.T @ u
        y = (2.0 * wi - gram @ wi) / deg
        x[i] = u @ y
        r[k : k + m] = deg * (gram @ y) - wi
        k += m
    t = np.eye(size) - zbar.T @ x.reshape(n * d, size)

    residual = np.linalg.norm(r)
    if residual > 1e-9 * (1.0 + np.linalg.norm(w)):
        raise SelfCheckFailedError(f"node solves miss deg_i G y = w (residual {residual:.3e})")

    return SplittingOperator(n=n, d=d, T=t, Z=z, graph_pair=graph_pair, spaces=spaces)


@functools.lru_cache(maxsize=256)
def _lifts(graph_pair, d):
    """(Z, Zbar): the default factor Z of the subgraph Laplacian, and
    Zbar = Z (x) I_d.

    A pure function of the frozen pair and d, so computed once per (pair, d)
    (the last 256 are kept) and returned read-only: equal calls share the
    two arrays, which no caller can modify.
    """
    z = graphs.laplacian_factor(graph_pair.gp)
    lifts = (z, matlin.kron_lift(z, d))
    for m in lifts:
        m.flags.writeable = False
    return lifts


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


class _Norm:
    """||A||_2 of a square N x N matrix A: ||A||_F is formed once, and ||A||_2
    is taken on demand, at most once.

    ||A||_F / sqrt(N) <= ||A||_2 <= ||A||_F (Golub & Van Loan), and the rule
    reads ||A||_F / (2 sqrt(N)) <= ||A||_2 <= 2 ||A||_F: the factor 2 covers
    the rounding of both computed norms. Where ||A||_F underflows, 2 ||A||_F
    can fall below ||A||_2, but then ||A||_2 is far below every tolerance and
    machine epsilon, so 1 + ||A||_2 rounds to 1 as 1 + 0 does.
    """

    def __init__(self, a):
        self._a = a
        self.frobenius = float(np.linalg.norm(a))
        self._exact = None

    def upper(self):
        return 2.0 * self.frobenius

    def lower(self):
        return self.frobenius / (2.0 * math.sqrt(self._a.shape[0]))

    def exact(self):
        if self._exact is None:
            self._exact = matlin.operator_norm(self._a)
        return self._exact


def _within(x, tol, norm, squared=False):
    """Whether x <= tol (1 + ||T||^2) if squared, else x <= tol (1 + ||T||),
    with norm the `_Norm` of T, and x a number or a `_Norm` for its ||A||_2.

    Rounding is monotone, so the computed threshold lies between tol and its
    value at 2 ||T||_F: an x at most tol is within, and an x above that value
    is not. The bounds of x decide first, then ||A||_2, and only then is
    ||T||_2 taken. The verdict is that of the exact norms.
    """

    def threshold(nrm):
        return tol * (1.0 + (nrm * nrm if squared else nrm))

    ceiling = threshold(norm.upper())
    if isinstance(x, _Norm):
        if x.upper() <= tol:
            return True
        if x.lower() > ceiling:
            return False
        x = x.exact()
    if x <= tol:
        return True
    return x <= ceiling and x <= threshold(norm.exact())


class SpectralReport:
    """The analysis of a checked T: each field is computed on its first read
    and kept, so each quantity is computed once, and only when read.

    The fields share a core that every read path needs and that is built
    with the report: one `_Norm` of T, one Gram matrix T^T T and `iso`, the
    `_Norm` of A = 2 T^T T - T - T^T. The two defects are the spectral norms
    of T^T T - T T^T and of A, printed as 0 under their floor
    2 N eps (1 + ||T||_F^2): the first-order bound of the error of forming
    either matrix in floating point (Higham, section 3.5), under which the
    exact defect of the float T cannot be told from 0. A defect whose
    Frobenius bound is at most the floor reads 0 with no spectral norm; any
    other is ||A||_2. Each verdict reads the `_Norm` of its matrix by the
    rule of `_within`, never a screened figure: a defect counts as zero up
    to DEFECT_TOL (1 + ||T||^2), decided by the bounds of the matrix first,
    and by its ||A||_2 only in their window. The floor lies below that
    threshold for every N up to 10^3, so a 0 never hides a defect that a
    verdict counts. The isometry defect of 2T - I is 2 iso_defect, since
    (2T - I)^T (2T - I) - I = 2 (2 T^T T - T - T^T).
    """

    def __init__(self, t):
        self._t = t
        self._norm = _Norm(t)
        self._gram = t.T @ t
        self.iso = _Norm(2.0 * self._gram - t - t.T)
        self._floor = 2.0 * t.shape[0] * EPS * (1.0 + self._norm.frobenius**2)

    @functools.cached_property
    def _normality(self):
        return _Norm(self._gram - self._t @ self._t.T)

    def _defect(self, a):
        return 0.0 if a.upper() <= self._floor else a.exact()

    @functools.cached_property
    def normality_defect(self):
        return self._defect(self._normality)

    @functools.cached_property
    def iso_defect(self):
        return self._defect(self.iso)

    @functools.cached_property
    def is_normal(self):
        return _within(self._normality, DEFECT_TOL, self._norm, squared=True)

    @functools.cached_property
    def is_iso_averaged(self):
        return _within(self.iso, DEFECT_TOL, self._norm, squared=True)

    @functools.cached_property
    def fix_basis(self):
        """Orthonormal basis of the fixed subspace ker(T - I): I when
        ||T - I||_2 <= RANK_TOL (1 + ||T||_2), else the null space of T - I.
        The identity test scales with T itself: when T is the identity up to
        round-off every direction is fixed, which a rank decision relative to
        the (noise-level) difference matrix would miss."""
        delta = self._t - np.eye(self._t.shape[0])
        if _within(_Norm(delta), matlin.RANK_TOL, self._norm):
            return np.eye(self._t.shape[0])
        return matlin.null_space(delta)

    @property
    def fix_dim(self):
        return self.fix_basis.shape[1]

    @functools.cached_property
    def _spectrum(self):
        """(eigenvalues, eigenvalues_off_one, rho1): the one home of the band
        at 1 and the half-circle check, read after the iso verdict and the
        fixed basis.

        The eigenvalues, sorted by (re, im), at 1 are the fix_dim eigenvalues
        nearest 1. Each must lie within 1e-7 (1 + ||T||) of 1, by the rule of
        `_within`; one outside means the eigensolver and the rank disagree, a
        self-check failure that names both counts. The subdominant radius is
        the largest modulus of the other eigenvalues, with 0 as the floor when
        none remain, so an extra eigenvalue near 1 (a defective 1, or one just
        above 1) shows in it. When the map is classified iso-averaged every
        eigenvalue must sit on the circle of radius 1/2 centered at 1/2, or
        the eigensolver and the certificate disagree, also a self-check
        failure.
        """
        iso_averaged, fix_dim = self.is_iso_averaged, self.fix_dim
        eigs = sorted(matlin.general_eigenvalues(self._t), key=lambda lam: (lam.real, lam.imag))
        at_one = set(sorted(range(len(eigs)), key=lambda i: abs(eigs[i] - 1.0))[:fix_dim])

        def near_one(lam):
            return _within(abs(lam - 1.0), EIGENVALUE_ONE_TOL, self._norm)

        if not all(near_one(eigs[i]) for i in at_one):
            band = sum(map(near_one, eigs))
            raise SelfCheckFailedError(
                f"eigenvalues within the band at 1 ({band}) disagree with the "
                f"fixed-subspace dimension ({fix_dim})"
            )
        off_one = tuple(lam for i, lam in enumerate(eigs) if i not in at_one)
        if iso_averaged:
            worst = max((abs(abs(lam - 0.5) - 0.5) for lam in eigs), default=0.0)
            if worst > EIGENVALUE_ONE_TOL:
                raise SelfCheckFailedError(
                    f"iso-averaged map has an eigenvalue off the half-circle (distance {worst:.3e})"
                )
        rho1 = max((abs(lam) for lam in off_one), default=0.0)
        return tuple(eigs), off_one, rho1

    @property
    def eigenvalues(self):
        return self._spectrum[0]

    @property
    def eigenvalues_off_one(self):
        return self._spectrum[1]

    @property
    def rho1(self):
        return self._spectrum[2]


def spectral_report(t):
    """The `SpectralReport` of T, which is checked here: 2-d, square and
    finite. Only the shared core (||T||_F, T^T T and ||A||_F) is computed
    here; every other quantity waits until a field that needs it is read."""
    return SpectralReport(_checked(t))


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
