"""Kernel factorizations against reconstruction identities and numpy oracles.

The implementation route (Householder QR, Hessenberg reduction, Francis QR,
Sturm bisection) never calls numpy.linalg decompositions, so numpy.linalg
here is a genuinely independent check.
"""

import math

import numpy as np
import pytest
from conftest import eig_multiset_close, random_operator
from hypothesis import given
from hypothesis import strategies as st
from test_properties import SETTINGS

from graphsplit import cli, matlin, splitting
from graphsplit._rng import SplitMix64


def test_qr_identity():
    q, r, perm = matlin.qr(np.eye(3))
    assert np.allclose(q, np.eye(3))
    assert np.allclose(r, np.eye(3))
    assert list(perm) == [0, 1, 2]


def test_qr_permutation_input():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    q, r, perm = matlin.qr(a)
    assert abs(abs(np.linalg.det(q)) - 1.0) <= 1e-12
    assert np.allclose(np.tril(r, -1), 0.0)
    assert np.linalg.norm(q @ r - a[:, perm]) <= 1e-12


def test_qr_seeded_reconstruction():
    a = SplitMix64(7).normal_matrix(10, 4)
    q, r, perm = matlin.qr(a, pivoting=True)
    assert np.linalg.norm(q @ r - a[:, perm]) / np.linalg.norm(a) <= 1e-12


@pytest.mark.parametrize("shape,seed", [((20, 20), 1), ((120, 60), 2), ((200, 200), 3)])
def test_qr_reconstruction_large(shape, seed):
    a = np.random.default_rng(seed).standard_normal(shape)
    for pivoting in (False, True):
        q, r, perm = matlin.qr(a, pivoting=pivoting)
        assert np.linalg.norm(q @ r - a[:, perm]) <= 1e-11 * np.linalg.norm(a)
        assert np.linalg.norm(q.T @ q - np.eye(shape[0])) <= 1e-11


def test_qr_pivot_diagonal_monotone():
    a = np.random.default_rng(11).standard_normal((30, 30))
    _, r, _ = matlin.qr(a, pivoting=True)
    d = np.abs(np.diagonal(r))
    assert np.all(np.diff(d) <= 1e-12)


def test_null_space_rank_one():
    n = matlin.null_space(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert n.shape == (2, 1)
    direction = np.array([1.0, -1.0]) / np.sqrt(2.0)
    assert min(np.linalg.norm(n[:, 0] - direction), np.linalg.norm(n[:, 0] + direction)) <= 1e-12


def test_null_space_sequential_laplacian():
    lap = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    n = matlin.null_space(lap)
    assert n.shape == (3, 1)
    ones = np.ones(3) / np.sqrt(3.0)
    assert min(np.linalg.norm(n[:, 0] - ones), np.linalg.norm(n[:, 0] + ones)) <= 1e-10


def test_null_space_full_rank():
    a = np.array([[2.0, 0.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 4.0]])
    assert matlin.null_space(a).shape == (3, 0)


def test_null_space_residual_property():
    rng = np.random.default_rng(4)
    for _ in range(20):
        m, n, k = rng.integers(2, 10, size=3)
        a = rng.standard_normal((m, k)) @ rng.standard_normal((k, n))
        ns = matlin.null_space(a)
        assert ns.shape[1] == n - np.linalg.matrix_rank(a, tol=1e-10)
        if ns.shape[1]:
            assert np.linalg.norm(ns.T @ ns - np.eye(ns.shape[1])) <= 1e-11
            assert np.linalg.norm(a @ ns) <= 1e-10 * max(np.linalg.norm(a), 1.0)


def _count_below(d, e2, x, pivmin):
    """Sturm count: eigenvalues below x of the symmetric tridiagonal (d, e),
    the negative pivots of the LDL^T factorization of T - x I, all counted."""
    count = 0
    q = 1.0
    for di, ei2 in zip(d, e2):
        q = di - x - ei2 / q
        if abs(q) <= pivmin:
            q = -pivmin
        if q < 0.0:
            count += 1
    return count


@SETTINGS
@given(st.integers(1, 10), st.integers(0, 2**32 - 1))
def test_sturm_decision_equals_the_full_count(n, seed):
    rng = np.random.default_rng(seed)
    # Integer entries give exact eigenvalues (of the diagonal and of repeated
    # blocks) alongside rounded ones; a zero off-diagonal splits the matrix.
    d = rng.integers(-3, 4, n).astype(float)
    e = rng.integers(-2, 3, n - 1).astype(float)
    if rng.random() < 0.5:
        d, e = rng.standard_normal(n), rng.standard_normal(n - 1) * (rng.random(n - 1) < 0.7)
    e2 = [0.0] + (e * e).tolist()
    pivmin = float(np.finfo(float).tiny) * max(1.0, max(e2))
    t = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    eigs = np.linalg.eigvalsh(t).tolist()
    shifts = [*eigs, *d.tolist(), *(rng.standard_normal(8) * 4.0).tolist()]
    shifts += [np.nextafter(x, np.inf) for x in eigs] + [np.nextafter(x, -np.inf) for x in eigs]
    for x in shifts:
        want = _count_below(d.tolist(), e2, x, pivmin) == n
        assert matlin._all_below(d.tolist(), e2, x, pivmin) is want


def test_operator_norm_2x2():
    assert matlin.operator_norm(np.array([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(3.0, abs=1e-12)


def test_operator_norm_relaxed_projector_diagonal():
    assert matlin.operator_norm(np.diag([1.0, 1.0 - 0.3])) == pytest.approx(1.0, abs=1e-14)


def test_operator_norm_zero_matrix():
    assert matlin.operator_norm(np.zeros((4, 4))) == 0.0


def test_operator_norm_rejects_nonfinite():
    with pytest.raises(ValueError):
        matlin.operator_norm(np.array([[1.0, np.inf], [0.0, 1.0]]))


def test_operator_norm_matches_numpy_square():
    rng = np.random.default_rng(5)
    for _ in range(15):
        n = int(rng.integers(1, 25))
        a = rng.standard_normal((n, n))
        a = a + a.T
        assert matlin.operator_norm(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)


def test_general_eigenvalues_rotation():
    eigs = matlin.general_eigenvalues(np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert eig_multiset_close(eigs, [1j, -1j], 1e-12)


def test_general_eigenvalues_nilpotent():
    eigs = matlin.general_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert eig_multiset_close(eigs, [0.0, 0.0], 1e-12)


def test_general_eigenvalues_half_average():
    # 0.5 (I - swap) projects onto span{(1,-1)}: spectrum {0, 1}.
    a = 0.5 * (np.eye(2) - np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert eig_multiset_close(matlin.general_eigenvalues(a), [0.0, 1.0], 1e-12)


def test_general_eigenvalues_residuals():
    rng = np.random.default_rng(6)
    for _ in range(25):
        n = int(rng.integers(1, 16))
        a = rng.standard_normal((n, n))
        norm = np.linalg.norm(a)
        for lam in matlin.general_eigenvalues(a):
            sigma = np.linalg.svd(a - lam * np.eye(n), compute_uv=False)[-1]
            assert sigma <= 1e-7 * (1.0 + norm)


def test_general_eigenvalues_conjugation_closure():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(2, 12))
        a = rng.standard_normal((n, n))
        eigs = matlin.general_eigenvalues(a)
        assert eig_multiset_close([e.conjugate() for e in eigs], eigs, 1e-12 * (1 + np.linalg.norm(a)))


def test_general_eigenvalues_matches_numpy():
    rng = np.random.default_rng(8)
    for _ in range(25):
        n = int(rng.integers(1, 20))
        a = rng.standard_normal((n, n))
        got = matlin.general_eigenvalues(a)
        want = np.linalg.eigvals(a)
        assert eig_multiset_close(got, want, 1e-7 * (1 + np.linalg.norm(a)))


def test_general_agrees_with_symmetric():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(2, 14))
        a = rng.standard_normal((n, n))
        a = a + a.T
        general = matlin.general_eigenvalues(a)
        symmetric = np.linalg.eigvalsh(a)
        assert eig_multiset_close(general, [complex(v) for v in symmetric], 1e-7 * (1 + np.linalg.norm(a)))


def test_general_eigenvalues_cyclic_permutations():
    # Roots of unity exercise the exceptional-shift path.
    for n in range(2, 10):
        p = np.eye(n)[list(range(1, n)) + [0]]
        got = matlin.general_eigenvalues(p)
        want = [np.exp(2j * np.pi * k / n) for k in range(n)]
        assert eig_multiset_close(got, want, 1e-9)


def test_operator_norm_identity():
    assert matlin.operator_norm(np.eye(4)) == pytest.approx(1.0, abs=1e-12)


def test_operator_norm_shift_block():
    assert matlin.operator_norm(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(1.0, abs=1e-12)


def test_operator_norm_scaled_identity():
    assert matlin.operator_norm(3.0 * np.eye(2)) == pytest.approx(3.0, abs=1e-12)


def test_operator_norm_matches_numpy():
    rng = np.random.default_rng(10)
    cases = [rng.standard_normal(tuple(rng.integers(1, 20, size=2))) for _ in range(15)]
    # Repeated singular values, rank one, row and column vectors, scales far
    # from 1 (where an unscaled Gram matrix under- or overflows) and T - I of
    # built operators.
    cases += [
        np.kron(np.eye(3), np.ones((2, 2))),
        np.diag([3.0, 1.0, 3.0, 3.0, 1.0]),
        np.outer(rng.standard_normal(6), rng.standard_normal(4)),
        rng.standard_normal((1, 7)),
        rng.standard_normal((7, 1)),
    ]
    a = rng.standard_normal((6, 5))
    cases += [scale * a for scale in (1e-16, 1e-160, 1e150)]
    for seed in (6, 118, 131):
        t = random_operator(seed).T
        cases.append(t - np.eye(t.shape[0]))
    for a in cases:
        assert matlin.operator_norm(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)


def test_kron_lift_column_factor():
    z = np.array([[1.0], [-1.0]])
    expected = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    assert np.array_equal(matlin.kron_lift(z, 2), expected)


def test_kron_lift_identity():
    assert np.array_equal(matlin.kron_lift(np.eye(2), 3), np.eye(6))


def test_kron_lift_transpose_commutes():
    z = np.array([[1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]])
    lifted = matlin.kron_lift(z, 2)
    assert lifted.shape == (6, 4)
    assert np.linalg.norm(matlin.kron_lift(z.T, 2) - lifted.T) == 0.0


def test_kron_lift_product_property():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2))
    left = matlin.kron_lift(a, 3) @ matlin.kron_lift(b, 3)
    right = matlin.kron_lift(a @ b, 3)
    assert np.allclose(left, right, atol=1e-13)


def test_kron_lift_is_bitwise_np_kron():
    rng = np.random.default_rng(13)
    values = np.array([-0.0, 0.0, -1.5, 2.0, 1e-300, -1e300])
    for _ in range(200):
        n, m, d = (int(k) for k in rng.integers(0, 5, size=3))
        z = np.where(rng.random((n, m)) < 0.5, rng.choice(values, (n, m)), rng.standard_normal((n, m)))
        got = matlin.kron_lift(z, d + 1)
        want = np.kron(z, np.eye(d + 1))
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_general_eigenvalues_scale_by_powers_of_two_exactly():
    for seed in (6, 31, 118):
        a = random_operator(seed).T
        want = matlin.general_eigenvalues(a)
        for e in (-300, -40, 60, 900):
            got = matlin.general_eigenvalues(np.ldexp(a, e))
            assert got == [complex(math.ldexp(w.real, e), math.ldexp(w.imag, e)) for w in want]


def test_general_eigenvalues_of_a_tiny_matrix():
    # Unscaled, the shift polynomial h^2 underflows here and QR never deflates.
    for seed in (6, 31, 118):
        a = 1e-94 * random_operator(seed).T
        got = matlin.general_eigenvalues(a)
        assert eig_multiset_close(got, np.linalg.eigvals(a), 1e-12 * (1e-94 + np.linalg.norm(a)))


def test_rejects_nonfinite_entries():
    with pytest.raises(ValueError):
        matlin.qr(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_operator_norm_on_built_operators():
    # The four kinds of matrix whose norms the certificates take.
    for seed in range(300):
        t = random_operator(seed).T
        i = np.eye(t.shape[0])
        for m in (t, t - i, t.T @ t - t @ t.T, 2.0 * t.T @ t - t - t.T):
            want = np.linalg.norm(m, 2)
            assert abs(matlin.operator_norm(m) - want) <= 1e-15 * (1.0 + want)


# The Householder kernel as it was written with np.outer and numpy scalars,
# kept as a bitwise oracle: the shared reflection helpers form the same
# products in the same order, so every QR factor and norm keeps its bits.

def _outer_house_vec(x):
    v = np.array(x, dtype=float)
    x0 = v[0]
    sigma = float(np.dot(v[1:], v[1:]))
    v[0] = 1.0
    if sigma == 0.0:
        return v, 0.0
    mu = np.hypot(x0, np.sqrt(sigma))
    if x0 <= 0.0:
        v0 = x0 - mu
    else:
        v0 = -sigma / (x0 + mu)
    beta = 2.0 * v0 * v0 / (sigma + v0 * v0)
    v[1:] /= v0
    return v, beta


def _outer_qr(a, pivoting=False):
    a = np.asarray(a, dtype=float)
    m, n = a.shape
    r = a.copy()
    q = np.eye(m)
    perm = np.arange(n)
    for k in range(min(m, n)):
        if pivoting:
            lens = np.einsum("ij,ij->j", r[k:, k:], r[k:, k:])
            j = k + int(np.argmax(lens))
            if j != k:
                r[:, [k, j]] = r[:, [j, k]]
                perm[[k, j]] = perm[[j, k]]
        v, beta = _outer_house_vec(r[k:, k])
        if beta != 0.0:
            r[k:, k:] -= beta * np.outer(v, v @ r[k:, k:])
            q[:, k:] -= beta * np.outer(q[:, k:] @ v, v)
            r[k + 1 :, k] = 0.0
    return q, r, perm


def _outer_hessenberg(a):
    h = a.copy()
    n = h.shape[0]
    for k in range(n - 2):
        v, beta = _outer_house_vec(h[k + 1 :, k])
        if beta == 0.0:
            continue
        h[k + 1 :, k:] -= beta * np.outer(v, v @ h[k + 1 :, k:])
        h[:, k + 1 :] -= beta * np.outer(h[:, k + 1 :] @ v, v)
        h[k + 2 :, k] = 0.0
    return h


def _outer_kernel(monkeypatch, fn, a):
    """fn(a) with the np.outer Hessenberg reduction."""
    with monkeypatch.context() as m:
        m.setattr(matlin, "_hessenberg", _outer_hessenberg)
        return fn(a)


def _random_matrices(seed, count, square):
    """Gaussian matrices of assorted shapes, some with zero columns, signed
    zeros and exactly triangular parts, so every branch of the reflections runs."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m = int(rng.integers(1, 13))
        n = m if square else int(rng.integers(1, 13))
        a = rng.standard_normal((m, n))
        kind = rng.integers(0, 4)
        if kind == 1:
            a[:, rng.integers(0, n)] = 0.0
        elif kind == 2:
            a = np.triu(a) - 0.0 * a
        elif kind == 3:
            a[rng.random((m, n)) < 0.4] = -0.0
        yield a


def _built_matrices(seeds):
    for seed in seeds:
        t = random_operator(seed).T
        yield from (t, t.T @ t, t - np.eye(t.shape[0]), 2.0 * t.T @ t - t - t.T)


def test_qr_keeps_the_bits_of_the_outer_product_kernel():
    cases = [*_random_matrices(21, 300, square=False), *_built_matrices(range(40))]
    for a in cases:
        for pivoting in (False, True):
            got = matlin.qr(a, pivoting)
            want = _outer_qr(a, pivoting)
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


# Built maps whose T^T T has a cluster of double eigenvalues on which a
# Francis QR with the fixed exceptional shift (1.5 s, -0.4375 s^2) found no
# deflation in 100 n sweeps: (graph, subgraph, n, ambient, (dim, seed) of
# each node space).
_GRAM_STALLS = [
    (
        "sequential",
        "sequential",
        4,
        5,
        [(3, 1224489171), (1, 4070260502), (2, 1717724349), (3, 786228931)],
    ),
    (
        "biparallel",
        "parallel_up",
        6,
        6,
        [
            (5, 1905806820),
            (5, 3715357315),
            (2, 4221894625),
            (4, 3562550211),
            (5, 1639458529),
            (5, 2768753728),
        ],
    ),
]


def _built_gram(graph, subgraph, n, ambient, spaces):
    config = cli.load_config({
        "graph": {"preset": graph, "n": n},
        "subgraph": {"preset": subgraph, "n": n},
        "ambient": ambient,
        "spaces": [{"kind": "random", "dim": dim, "seed": seed} for dim, seed in spaces],
    })
    t = splitting.build(config.graph_pair, config.spaces).T
    return t.T @ t


def test_eigenvalues_match_numpy_on_built_and_random_matrices():
    # Built G = G' operators of every preset on 3 to 6 nodes and their T^T T
    # are normal, so each eigenvalue lies within the backward error of an
    # exact one (Bauer-Fike); close pairs among them, which a 2x2 step that
    # cancels gets wrong in the eighth digit, are compared one by one. So
    # are the symmetric _GRAM_STALLS. The random square matrices, built maps
    # and cyclic shifts hold no cluster of ill-conditioned eigenvalues, so
    # one tolerance serves every input.
    equal = [random_operator(seed, n_lo=3).T for seed in range(240)]
    cyclic = [np.roll(np.eye(n), 1, axis=0) for n in range(2, 9)]
    cases = [*equal, *(t.T @ t for t in equal), *_random_matrices(22, 200, square=True)]
    cases += [_built_gram(*stall) for stall in _GRAM_STALLS]
    cases += [*_built_matrices(range(60)), *cyclic]
    for a in cases:
        tol = 1e-12 * (1.0 + np.linalg.norm(a, 2))
        assert eig_multiset_close(matlin.general_eigenvalues(a), np.linalg.eigvals(a), tol)


def test_operator_norm_keeps_the_bits_of_the_outer_product_kernel(monkeypatch):
    cases = [*_random_matrices(23, 300, square=False), *_built_matrices(range(60))]
    for a in cases:
        want = _outer_kernel(monkeypatch, matlin.operator_norm, a)
        assert matlin.operator_norm(a).hex() == want.hex()
