"""Operator assembly, matrix-free application, and spectral certificates."""

import numpy as np
import pytest
from conftest import eig_multiset_close, random_operator

from graphsplit import experiments, graphs, matlin, splitting, subspaces
from graphsplit._rng import SplitMix64


def _line(angle_deg):
    a = np.deg2rad(angle_deg)
    return subspaces.from_generators([np.array([np.cos(a), np.sin(a)])])


def _dr_pair(angle_deg):
    u1 = _line(0.0)
    u2 = _line(angle_deg)
    op = splitting.build(
        graphs.pair(graphs.preset("sequential", 2)), subspaces.product([u1, u2])
    )
    return op, u1, u2


def test_build_forms_the_projector_once_and_lifts_twice(monkeypatch):
    counts = {"projector": 0, "kron_lift": 0}
    projector, kron_lift = subspaces.ProductSubspace.projector, matlin.kron_lift

    def counting_projector(self):
        counts["projector"] += 1
        return projector(self)

    def counting_kron_lift(z, d):
        counts["kron_lift"] += 1
        return kron_lift(z, d)

    monkeypatch.setattr(subspaces.ProductSubspace, "projector", counting_projector)
    monkeypatch.setattr(matlin, "kron_lift", counting_kron_lift)
    gp = graphs.pair(graphs.preset("ring", 4), graphs.preset("sequential", 4))
    splitting.build(gp, subspaces.product([subspaces.random_subspace(3, 2, k) for k in range(4)]))
    assert counts == {"projector": 1, "kron_lift": 2}


def _two_solve_t(graph_pair, spaces):
    """T as `build` formed it with two solves against M, one for X = M^{-1} P Zbar
    and one for M^{-1}: the bitwise oracle of its single solve."""
    n, d = graph_pair.g.n, spaces.ambient
    _, _, _, b = graphs.matrices(graph_pair.g)
    z = graphs.laplacian_factor(graph_pair.gp)
    p = spaces.projector()
    zbar = matlin.kron_lift(z, d)
    m = p @ matlin.kron_lift(b, d) @ p + (np.eye(p.shape[0]) - p)
    x = np.linalg.solve(m, p @ zbar)
    return np.eye((n - 1) * d) - zbar.T @ x


def test_build_solves_once(monkeypatch):
    calls = []
    solve = np.linalg.solve

    def counting(a, b):
        calls.append(b.shape)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting)
    gp = graphs.pair(graphs.preset("ring", 4), graphs.preset("sequential", 4))
    splitting.build(gp, subspaces.product([subspaces.random_subspace(3, 2, k) for k in range(4)]))
    # [P Zbar, I]: 3 (n - 1) columns, then 3 n.
    assert calls == [(12, 9 + 12)]


def test_one_solve_keeps_the_bits_of_two():
    for _, make in experiments.pair_catalog():
        for n in range(3, 7):
            gp = make(n)
            for d in range(1, 4):
                cases = [subspaces.coordinate_product(n, i, d) for i in range(1, n + 1)]
                cases.append(subspaces.product(
                    [subspaces.random_subspace(d, (n + k) % (d + 1), 97 * n + 7 * d + k)
                     for k in range(n)]
                ))
                for spaces in cases:
                    got = splitting.build(gp, spaces).T
                    want = _two_solve_t(gp, spaces)
                    assert list(map(float.hex, got.ravel().tolist())) == list(
                        map(float.hex, want.ravel().tolist())
                    ), (n, d)


def test_build_two_nodes_is_douglas_rachford():
    op, u1, u2 = _dr_pair(60.0)
    p1, p2 = u1.projector(), u2.projector()
    r1, r2 = 2.0 * p1 - np.eye(2), 2.0 * p2 - np.eye(2)
    dr = 0.5 * (r2 @ r1) + 0.5 * np.eye(2)
    assert np.allclose(op.T, dr, atol=1e-12)
    report = splitting.spectral_report(op.T)
    assert report.rho1 == pytest.approx(subspaces.friedrichs_cosine(u1, u2), abs=1e-10)


def test_build_requires_matching_spaces():
    gp = graphs.pair(graphs.preset("sequential", 3))
    with pytest.raises(ValueError):
        splitting.build(gp, subspaces.product([subspaces.full(2)] * 2))


def test_build_rejects_bad_factor():
    gp = graphs.pair(graphs.preset("sequential", 3))
    spaces = subspaces.product([subspaces.full(1)] * 3)
    with pytest.raises(splitting.BadFactorError):
        splitting.build(gp, spaces, z=np.ones((3, 2)))


def test_build_biparallel_block_c():
    gp = graphs.pair(graphs.preset("biparallel", 4), graphs.preset("parallel_up", 4))
    for d in (1, 2):
        spaces = subspaces.product([subspaces.full(d)] * 4)
        op = splitting.build(gp, spaces, z=graphs.incidence(gp.gp))
        expected = matlin.kron_lift(np.diag([0.5, 0.5, 0.0]), d)
        assert np.max(np.abs(op.C - expected)) <= 1e-10


def test_build_ring_over_sequential_c():
    gp = graphs.pair(graphs.preset("ring", 3), graphs.preset("sequential", 3))
    for d in (1, 3):
        spaces = subspaces.product([subspaces.full(d)] * 3)
        op = splitting.build(gp, spaces, z=graphs.incidence(gp.gp))
        expected = matlin.kron_lift(0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]]), d)
        assert np.max(np.abs(op.C - expected)) <= 1e-10


def test_apply_iterative_zero_is_zero():
    op = random_operator(seed=77)
    v_next, xs = splitting.apply_iterative(op, np.zeros(op.size))
    assert np.array_equal(v_next, np.zeros(op.size))
    assert all(np.array_equal(x, np.zeros(op.d)) for x in xs)


def test_apply_iterative_three_node_substitution():
    # Chain on three nodes with the tree incidence factor: the sweep must
    # reproduce the textbook three-step substitution system.
    op, v0, _, _ = experiments.three_lines_example()
    rng = SplitMix64(123)
    for _ in range(5):
        v = rng.normals(4)
        v1, v2 = v[:2], v[2:]
        p = [f.projector() for f in op.spaces.factors]
        x1 = p[0] @ v1
        x2 = p[1] @ (x1 + 0.5 * (v2 - v1))
        x3 = p[2] @ (2.0 * x2 - v2)
        _, xs = splitting.apply_iterative(op, v)
        assert np.allclose(xs[0], x1, atol=1e-12)
        assert np.allclose(xs[1], x2, atol=1e-12)
        assert np.allclose(xs[2], x3, atol=1e-12)


def test_apply_iterative_matches_dense():
    rng = SplitMix64(11)
    for k in range(10):
        op = random_operator(seed=500 + k)
        for _ in range(5):
            v = rng.normals(op.size)
            v_next, _ = splitting.apply_iterative(op, v)
            assert np.linalg.norm(v_next - op.T @ v) <= 1e-9 * (1.0 + np.linalg.norm(v))


def test_relax_endpoints():
    t = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(splitting.relax(t, 1.0), t)
    assert np.array_equal(splitting.relax(t, 0.0), np.eye(2))


def test_relax_projector_diagonal():
    t = np.diag([1.0, 0.0])
    for theta in (0.25, 0.75, 1.5):
        assert np.array_equal(splitting.relax(t, theta), np.diag([1.0, 1.0 - theta]))


def test_certificates_shift_block():
    cert = splitting.certificates(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert cert.normality_defect == pytest.approx(1.0, abs=1e-12)
    assert cert.iso_defect > 0.5
    assert not cert.is_normal and not cert.is_iso_averaged


def test_certificates_projector_is_clean():
    cert = splitting.certificates(np.diag([1.0, 0.0]))
    assert cert.normality_defect == 0.0
    assert cert.iso_defect == 0.0
    assert cert.is_normal and cert.is_iso_averaged


def test_certificates_isometry_defect_is_twice_iso_and_norm_matches_numpy():
    # (2T - I)^T (2T - I) - I = 2 (2 T^T T - T - T^T), so the isometry
    # defect of 2T - I needs no norm of its own.
    ring_seq = graphs.pair(graphs.preset("ring", 4), graphs.preset("sequential", 4))
    spaces = subspaces.product([subspaces.random_subspace(2, 1, 900 + i) for i in range(4)])
    for t in (
        np.array([[0.0, 1.0], [0.0, 0.0]]),
        np.diag([1.0, 0.0]),
        random_operator(seed=901).T,
        splitting.build(ring_seq, spaces).T,
    ):
        cert = splitting.certificates(t)
        s = 2.0 * t - np.eye(t.shape[0])
        isometry = np.linalg.norm(s.T @ s - np.eye(t.shape[0]), 2)
        assert isometry == pytest.approx(2.0 * cert.iso_defect, rel=1e-12, abs=1e-15)
        assert cert.norm == pytest.approx(np.linalg.norm(t, 2), rel=1e-12)


def test_certificates_half_shifted_permutation():
    # Averaging the identity with a sign-flipped permutation is the model
    # iso-averaged map.
    p = np.eye(4)[[1, 2, 3, 0]]
    c = 0.5 * (np.eye(4) - p)
    assert splitting.certificates(np.eye(4) - c).iso_defect <= 1e-12
    assert splitting.certificates(c).iso_defect <= 1e-12


def test_spectral_report_identity():
    report = splitting.spectral_report(np.eye(3))
    assert report.rho1 == 0.0
    assert report.fix_dim == 3
    assert report.is_normal and report.is_iso_averaged


def test_spectral_report_dr_sixty_degrees():
    op, _, _ = _dr_pair(60.0)
    report = splitting.spectral_report(op.T)
    assert report.is_iso_averaged
    assert report.rho1 == pytest.approx(0.5, abs=1e-10)


def test_spectral_report_biparallel_block():
    t = np.eye(3) - np.diag([0.5, 0.5, 0.0])
    report = splitting.spectral_report(t)
    assert report.is_normal
    assert not report.is_iso_averaged
    assert report.iso_defect > 0.4
    # The eigenvalue 1/2 violates |lambda|^2 = Re(lambda).
    half = [lam for lam in report.eigenvalues if abs(lam - 0.5) <= 1e-9]
    assert half and all(abs(abs(lam) ** 2 - lam.real) > 0.2 for lam in half)


def test_spectral_report_excludes_only_unit_eigenvalue():
    report = splitting.spectral_report(np.diag([1.0, 0.3, 0.9]))
    assert report.fix_dim == 1
    assert report.rho1 == pytest.approx(0.9, abs=1e-12)


def test_predicted_rate_values():
    assert splitting.predicted_rate(0.5, 1.0) == pytest.approx(0.5, abs=1e-15)
    assert splitting.predicted_rate(0.5, 0.5) == pytest.approx(np.sqrt(0.4375), abs=1e-12)
    for rho in (0.0, 0.3, 0.9):
        for theta in (0.2, 0.7, 1.3):
            assert splitting.predicted_rate(rho, theta) == pytest.approx(
                splitting.predicted_rate(rho, 2.0 - theta), abs=1e-14
            )
            # Any relaxation away from 1 is strictly slower.
            assert splitting.predicted_rate(rho, theta) > splitting.predicted_rate(rho, 1.0)


def test_predicted_rate_domain():
    with pytest.raises(splitting.DomainError):
        splitting.predicted_rate(0.5, 0.0)
    with pytest.raises(splitting.DomainError):
        splitting.predicted_rate(0.5, 2.0)
    with pytest.raises(ValueError):
        splitting.predicted_rate(1.0, 1.0)


def test_dr_rate():
    u1 = _line(0.0)
    u2 = _line(60.0)
    assert splitting.dr_rate(u1, u2, 1.0) == pytest.approx(0.5, abs=1e-12)
    assert splitting.dr_rate(u1, u2, 0.5) == pytest.approx(0.661437827766, abs=1e-9)
    assert splitting.dr_rate(u1, u1, 1.0) == 0.0


def _rebase(op, o):
    """The operator built from the factor Z O in place of Z."""
    return splitting.build(op.graph_pair, op.spaces, z=op.Z @ o)


def test_rebase_identity_is_noop():
    op = random_operator(seed=21)
    re = _rebase(op, np.eye(op.n - 1))
    assert np.allclose(re.T, op.T, atol=1e-12)


def test_rebase_rotation_preserves_defects():
    op = random_operator(seed=22, n_lo=3, n_hi=3)
    angle = np.deg2rad(30.0)
    o = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
    re = _rebase(op, o)
    n0 = splitting.certificates(op.T)
    n1 = splitting.certificates(re.T)
    assert abs(n0.normality_defect - n1.normality_defect) <= 1e-9
    assert abs(n0.iso_defect - n1.iso_defect) <= 1e-9
    lift = matlin.kron_lift(o, op.d)
    assert np.allclose(re.C, lift.T @ op.C @ lift, atol=1e-9)


def test_rebase_reflection_preserves_spectrum():
    op = random_operator(seed=23, n_lo=3, n_hi=3)
    re = _rebase(op, np.diag([1.0, -1.0]))
    got = matlin.general_eigenvalues(re.T)
    want = matlin.general_eigenvalues(op.T)
    assert eig_multiset_close(got, want, 1e-7 * (1 + matlin.operator_norm(op.T)))


def test_rebase_rejects_non_orthogonal():
    # Z O factors the Laplacian only for an orthogonal O.
    op = random_operator(seed=24, n_lo=3, n_hi=3)
    with pytest.raises(splitting.BadFactorError):
        _rebase(op, np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_lift_range_is_orthogonal_to_diagonal():
    for k in range(5):
        op = random_operator(seed=600 + k)
        zbar = matlin.kron_lift(op.Z, op.d)
        diag = matlin.kron_lift(np.ones((op.n, 1)), op.d)
        assert np.max(np.abs(diag.T @ zbar)) <= 1e-12


def test_iso_operators_are_firmly_nonexpansive():
    for k in range(5):
        op = random_operator(seed=700 + k)
        s = 2.0 * op.T - np.eye(op.size)
        assert matlin.operator_norm(s) == pytest.approx(1.0, abs=1e-9)


def test_relaxation_scales_normality_defect_quadratically():
    # Non-normal specimen: star-to-last plus one extra edge, full spaces.
    gp = experiments.with_extra_edge(graphs.preset("parallel_down", 4), (1, 2))
    op = splitting.build(gp, subspaces.product([subspaces.full(1)] * 4))
    base = splitting.certificates(op.T).normality_defect
    assert base > 1e-3
    for theta in (0.3, 0.8, 1.5):
        relaxed = splitting.certificates(splitting.relax(op.T, theta)).normality_defect
        assert abs(relaxed - theta**2 * base) <= 1e-10


def test_iso_circle_for_iso_operators():
    for k in range(5):
        op = random_operator(seed=800 + k)
        report = splitting.spectral_report(op.T)
        assert report.is_iso_averaged
        assert 0.0 <= report.rho1 <= 1.0
        for lam in report.eigenvalues:
            assert abs(abs(lam) ** 2 - lam.real) <= 1e-7
