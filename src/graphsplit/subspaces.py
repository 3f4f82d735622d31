"""Linear subspaces of R^d held as orthonormal bases.

A subspace carries its basis (d x k, orthonormal columns, k possibly zero)
and hands out the projector basis @ basis.T. Products of subspaces model
the per-node constraint sets of a splitting method; their projectors are
block diagonal.
"""

from dataclasses import dataclass

import numpy as np

from . import matlin
from ._json import check_count, integer, known_fields, reals
from ._rng import SplitMix64


@dataclass(frozen=True)
class Subspace:
    basis: np.ndarray  # (d, k), orthonormal columns

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        if b.ndim != 2:
            raise ValueError("basis must be a 2-d array")
        object.__setattr__(self, "basis", b)
        d, k = b.shape
        if k > d:
            raise ValueError("more basis vectors than ambient dimensions")
        if not np.isfinite(b).all():
            raise ValueError("basis must have finite entries")
        if k and np.max(np.abs(b.T @ b - np.eye(k))) > 1e-12:
            raise ValueError("basis columns are not orthonormal")

    @property
    def ambient(self):
        return self.basis.shape[0]

    @property
    def dim(self):
        return self.basis.shape[1]

    def projector(self):
        return self.basis @ self.basis.T

    def project(self, x):
        return self.basis @ (self.basis.T @ np.asarray(x, dtype=float))


def _trusted(basis):
    """Subspace of a float basis whose columns are orthonormal by construction.

    Skips the orthonormality check of `Subspace`, which a caller's basis
    still gets; the property tests keep the invariant for every use.
    """
    s = object.__new__(Subspace)
    object.__setattr__(s, "basis", basis)
    return s


def trivial(ambient):
    return _trusted(np.zeros((ambient, 0)))


def full(ambient):
    return _trusted(np.eye(ambient))


def from_generators(vectors, ambient=None):
    """Subspace spanned by the given vectors (orthonormalized, rank-truncated).

    The generators must be flat vectors of one length with finite entries.
    An empty generator list yields the trivial subspace, in which case the
    ambient dimension must be supplied.
    """
    vectors = [np.asarray(v, dtype=float) for v in vectors]
    if not vectors:
        if ambient is None:
            raise ValueError("ambient dimension required for an empty generator list")
        return trivial(ambient)
    d = vectors[0].size
    if any(v.shape != (d,) or not np.isfinite(v).all() for v in vectors):
        raise ValueError("generators must be flat vectors of one length with finite entries")
    if ambient is not None and ambient != d:
        raise ValueError("generators do not match the ambient dimension")
    return Subspace(matlin.column_space(np.column_stack(vectors)))


def hyperplane(normal):
    """The (d-1)-dimensional subspace orthogonal to a nonzero vector."""
    normal = np.asarray(normal, dtype=float)
    if not np.isfinite(normal).all():
        raise ValueError("hyperplane normal must have finite entries")
    if not normal.any():
        raise ValueError("hyperplane normal must be nonzero")
    return Subspace(matlin.null_space(normal.reshape(1, -1)))


def complement(u):
    """Orthogonal complement: projectors of u and of the result sum to I."""
    return Subspace(matlin.null_space(u.basis.T))


def intersect(u, v):
    """Intersection via the kernel of the stacked complement projectors."""
    if u.ambient != v.ambient:
        raise ValueError("subspaces live in different ambient spaces")
    d = u.ambient
    stacked = np.vstack([np.eye(d) - u.projector(), np.eye(d) - v.projector()])
    return Subspace(matlin.null_space(stacked))


def friedrichs_cosine(u1, u2):
    """Cosine of the Friedrichs angle between two subspaces.

    The common intersection is removed from both sides first; the result is
    the largest principal-angle cosine between the deflated spaces, and 0
    if either deflated space is trivial.
    """
    if u1.ambient != u2.ambient:
        raise ValueError("subspaces live in different ambient spaces")
    w = intersect(u1, u2)
    b1, b2 = u1.basis, u2.basis
    if w.dim:
        away = complement(w)
        b1 = intersect(u1, away).basis
        b2 = intersect(u2, away).basis
    if b1.shape[1] == 0 or b2.shape[1] == 0:
        return 0.0
    return min(matlin.operator_norm(b1.T @ b2), 1.0)


def random_subspace(ambient, dim, seed):
    """Seeded random subspace: Gaussian matrix, then QR.

    Deterministic for a given seed; the construction has full support on
    the set of dim-dimensional subspaces. dim 0 and dim == ambient have one
    subspace each, `trivial` and `full`, and draw nothing. The columns of
    the Householder Q are orthonormal by construction, so they are taken
    without the check a caller's basis gets.
    """
    check_count("dim", dim, 0)
    if dim > ambient:
        raise ValueError("dimension must lie between 0 and the ambient dimension")
    if dim == 0:
        return trivial(ambient)
    if dim == ambient:
        return full(ambient)
    g = SplitMix64(seed).normal_matrix(ambient, dim)
    q, _, _ = matlin.qr(g)
    return _trusted(q[:, :dim].copy())


@dataclass(frozen=True)
class ProductSubspace:
    """Cartesian product U_1 x ... x U_n of subspaces over one ambient space."""

    factors: tuple

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise ValueError("product needs at least one factor")
        d = self.factors[0].ambient
        if any(f.ambient != d for f in self.factors):
            raise ValueError("all factors must share the ambient dimension")

    @property
    def n(self):
        return len(self.factors)

    @property
    def ambient(self):
        return self.factors[0].ambient

    def projector(self):
        """Block-diagonal stack of the factor projectors (exactly)."""
        d = self.ambient
        p = np.zeros((self.n * d, self.n * d))
        for i, f in enumerate(self.factors):
            p[i * d : (i + 1) * d, i * d : (i + 1) * d] = f.projector()
        return p


def product(factors):
    return ProductSubspace(tuple(factors))


def coordinate_product(n, i, ambient):
    """All factors trivial except the i-th (1-based), which is the full space."""
    check_count("i", i, 1)
    if i > n:
        raise ValueError("factor index out of range")
    return ProductSubspace(
        tuple(full(ambient) if j == i else trivial(ambient) for j in range(1, n + 1))
    )


def _vector(value, ambient, what):
    """A list of `ambient` numbers as a float vector; anything else raises ValueError."""
    v = np.asarray(reals(value), dtype=float)
    if v.shape != (ambient,):
        raise ValueError(f"{what} must be a list of {ambient} numbers, got shape {v.shape}")
    return v


# The fields of each subspace kind of a JSON fragment, besides "kind".
_KIND_FIELDS = {
    "span": ("vectors",),
    "hyperplane": ("normal",),
    "random": ("dim", "seed"),
    "full": (),
    "trivial": (),
}


def from_json(obj, ambient):
    """Subspace from a JSON fragment.

    Recognized kinds: span (list of vectors), hyperplane (normal vector),
    random (dim and seed), full, trivial. A field the kind does not take is
    an error.
    """
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError('subspace fragment must be an object with a "kind"')
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in _KIND_FIELDS:
        raise ValueError(f"unknown subspace kind {kind!r}")
    known_fields(obj, ("kind", *_KIND_FIELDS[kind]))
    if kind == "span":
        return from_generators([_vector(v, ambient, "span vector") for v in obj["vectors"]], ambient)
    if kind == "hyperplane":
        return hyperplane(_vector(obj["normal"], ambient, "hyperplane normal"))
    if kind == "random":
        return random_subspace(ambient, integer(obj["dim"]), integer(obj["seed"]))
    return full(ambient) if kind == "full" else trivial(ambient)
