"""Subspace construction, projectors, angles, and product spaces."""

import numpy as np
import pytest

from graphsplit import subspaces
from graphsplit.subspaces import (
    ProductSubspace,
    Subspace,
    complement,
    coordinate_product,
    friedrichs_cosine,
    from_generators,
    full,
    hyperplane,
    intersect,
    random_subspace,
    trivial,
)


def test_from_generators_collinear():
    u = from_generators([np.array([1.0, 0.0]), np.array([2.0, 0.0])])
    assert u.dim == 1
    assert np.allclose(np.abs(u.basis[:, 0]), [1.0, 0.0])


def test_from_generators_empty():
    assert from_generators([], ambient=3).dim == 0
    with pytest.raises(ValueError):
        from_generators([])


def test_from_generators_full_plane():
    u = from_generators([np.array([1.0, 1.0]), np.array([1.0, -1.0])])
    assert u.dim == 2
    assert np.allclose(u.projector(), np.eye(2), atol=1e-12)


def test_projector_line():
    u = from_generators([np.array([1.0, 0.0])])
    assert np.allclose(u.projector(), np.array([[1.0, 0.0], [0.0, 0.0]]), atol=1e-14)


def test_projector_trivial_and_full():
    assert np.array_equal(trivial(2).projector(), np.zeros((2, 2)))
    assert np.allclose(full(2).projector(), np.eye(2), atol=1e-14)


def test_projector_invariants_random():
    for seed in range(1, 13):
        dim = seed % 6
        u = random_subspace(6, dim, seed)
        p = u.projector()
        assert np.linalg.norm(p @ p - p) <= 1e-11
        assert np.linalg.norm(p - p.T) <= 1e-11
        assert abs(np.trace(p) - dim) <= 1e-11


def test_intersect_orthogonal_lines():
    u = from_generators([np.array([1.0, 0.0])])
    v = from_generators([np.array([0.0, 1.0])])
    assert intersect(u, v).dim == 0


def test_intersect_shared_line():
    u = from_generators([np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])])
    v = from_generators([np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])])
    w = intersect(u, v)
    assert w.dim == 1
    x = np.array([1.0, 0.0, 0.0])
    assert np.linalg.norm(w.project(x) - x) <= 1e-12


def test_hyperplane_example():
    h = hyperplane(np.array([-1.0, 6.0]))
    assert h.dim == 1
    expected = np.array([6.0, 1.0]) / np.sqrt(37.0)
    assert min(np.linalg.norm(h.basis[:, 0] - expected), np.linalg.norm(h.basis[:, 0] + expected)) <= 1e-12


def test_hyperplane_zero_normal():
    with pytest.raises(ValueError, match="^hyperplane normal must be nonzero$"):
        hyperplane(np.zeros(3))


def test_complement_roundtrip():
    a = np.array([2.0, -1.0, 0.5])
    line = complement(hyperplane(a))
    assert line.dim == 1
    assert np.linalg.norm(line.project(a) - a) <= 1e-12
    u = random_subspace(5, 3, 17)
    assert np.allclose(u.projector() + complement(u).projector(), np.eye(5), atol=1e-11)
    assert complement(trivial(4)).dim == 4


def test_friedrichs_sixty_degrees():
    u1 = from_generators([np.array([1.0, 0.0])])
    alpha = np.deg2rad(60.0)
    u2 = from_generators([np.array([np.cos(alpha), np.sin(alpha)])])
    assert friedrichs_cosine(u1, u2) == pytest.approx(0.5, abs=1e-12)


def test_friedrichs_identical_subspaces():
    u = random_subspace(4, 2, 3)
    assert friedrichs_cosine(u, u) == 0.0


def test_friedrichs_orthogonal_lines():
    u1 = from_generators([np.array([1.0, 0.0])])
    u2 = from_generators([np.array([0.0, 1.0])])
    assert friedrichs_cosine(u1, u2) == pytest.approx(0.0, abs=1e-12)


def _friedrichs_oracle(b1, b2):
    """Brute-force principal angles: full SVD with intersection deflation."""
    d = b1.shape[0]
    stacked = np.vstack([np.eye(d) - b1 @ b1.T, np.eye(d) - b2 @ b2.T])
    _, s, vh = np.linalg.svd(stacked)
    rank = int(np.sum(s > 1e-10 * s[0])) if s.size else 0
    w = vh[rank:].T
    away = np.eye(d) - w @ w.T

    def deflate(b):
        u, s2, _ = np.linalg.svd(away @ b, full_matrices=False)
        if s2.size == 0 or s2[0] == 0.0:
            return u[:, :0]
        return u[:, : int(np.sum(s2 > 1e-10 * s2[0]))]

    b1d, b2d = deflate(b1), deflate(b2)
    if b1d.shape[1] == 0 or b2d.shape[1] == 0:
        return 0.0
    return float(np.linalg.svd(b1d.T @ b2d, compute_uv=False)[0])


def test_friedrichs_against_svd_oracle():
    for seed in range(1, 21):
        u1 = random_subspace(5, 1 + seed % 4, 100 + seed)
        u2 = random_subspace(5, 1 + (seed * 7) % 4, 200 + seed)
        got = friedrichs_cosine(u1, u2)
        want = _friedrichs_oracle(u1.basis, u2.basis)
        assert got == pytest.approx(want, abs=1e-9)
        assert 0.0 <= got < 1.0
        assert friedrichs_cosine(u2, u1) == pytest.approx(got, abs=1e-11)


def test_random_subspace_endpoints():
    assert random_subspace(3, 0, 1).dim == 0
    r3 = random_subspace(3, 3, 1)
    assert np.array_equal(r3.projector(), np.eye(3))


def test_random_subspace_deterministic():
    a = random_subspace(5, 2, 42)
    b = random_subspace(5, 2, 42)
    assert np.array_equal(a.basis, b.basis)
    c = random_subspace(5, 2, 43)
    assert not np.array_equal(a.basis, c.basis)


def test_coordinate_product_blocks():
    prod = coordinate_product(3, 2, 2)
    assert prod.factors[0].dim == 0
    assert prod.factors[1].dim == 2
    assert prod.factors[2].dim == 0
    assert np.array_equal(prod.factors[1].basis, np.eye(2))
    assert coordinate_product(1, 1, 2).factors[0].dim == 2
    with pytest.raises(ValueError):
        coordinate_product(3, 4, 2)


def test_product_requires_common_ambient():
    with pytest.raises(ValueError):
        ProductSubspace((trivial(2), trivial(3)))


def test_subspace_rejects_skewed_basis():
    with pytest.raises(ValueError):
        Subspace(np.array([[1.0, 1.0], [0.0, 1.0]]))


@pytest.mark.parametrize(
    "basis",
    [np.array([[np.nan]]), np.array([[np.nan], [0.0]]), np.array([[1.0, 0.0], [0.0, np.inf]])],
)
def test_subspace_rejects_a_non_finite_basis(basis):
    with pytest.raises(ValueError, match="^basis must have finite entries$"):
        Subspace(basis)


@pytest.mark.parametrize("scale", [-900, -600, 600, 900])
def test_projectors_do_not_depend_on_the_scale_of_their_vectors(scale):
    # The QR reduces 2^scale v as v times a power of two, so the squared
    # norms neither underflow nor overflow and the projectors keep their bits.
    rng = np.random.default_rng(abs(scale))
    for case in range(150):
        d = 1 + case % 5
        vectors = list(rng.standard_normal((1 + case % (d + 1), d)))
        scaled = [np.ldexp(v, scale) for v in vectors]
        assert np.array_equal(from_generators(scaled).projector(), from_generators(vectors).projector())
        assert np.array_equal(hyperplane(scaled[0]).projector(), hyperplane(vectors[0]).projector())


def test_vectors_whose_r_overflows_are_rejected_not_misranked():
    # ||(1.7e308, 1.7e308)|| exceeds the largest double: no R holds it, and
    # an inf pivot would read as rank 0.
    big = [1.7e308, 1.7e308]
    for make in (hyperplane, lambda v: from_generators([v])):
        with pytest.raises(ValueError, match="^matrix too large to factor: its R overflows$"):
            make(big)
    assert hyperplane([1e308, 1e308]).dim == from_generators([[1e308, 1e308]]).dim == 1


GENERATORS = "generators must be flat vectors of one length with finite entries"


@pytest.mark.parametrize(
    "make,vectors,message",
    [
        (hyperplane, [np.nan, 1.0], "hyperplane normal must have finite entries"),
        (hyperplane, [np.inf, -np.inf], "hyperplane normal must have finite entries"),
        (from_generators, [[np.inf, 1.0]], GENERATORS),
        (from_generators, [[1.0, 0.0], [0.0, np.nan]], GENERATORS),
        (from_generators, [[1.0, 2.0], [1.0]], GENERATORS),
        (from_generators, [1.0, 2.0], GENERATORS),
        (from_generators, [[[1.0], [2.0]]], GENERATORS),
    ],
)
def test_bad_generators_and_normals_are_named(make, vectors, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make(vectors)
