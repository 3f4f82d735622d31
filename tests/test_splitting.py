"""Operator assembly, matrix-free application, and the spectral report."""

import json
import warnings

import numpy as np
import pytest
from conftest import defect_floor, doubled_qr, eig_multiset_close, full_report, random_operator

from graphsplit import cli, experiments, graphs, matlin, splitting, subspaces
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


def test_build_lifts_once(monkeypatch):
    lifted = []
    kron_lift = matlin.kron_lift

    def counting_kron_lift(z, d):
        lifted.append(z.shape)
        return kron_lift(z, d)

    monkeypatch.setattr(matlin, "kron_lift", counting_kron_lift)
    splitting._lifts.cache_clear()
    gp = graphs.pair(graphs.preset("ring", 4), graphs.preset("sequential", 4))
    spaces = subspaces.product([subspaces.random_subspace(3, 2, k) for k in range(4)])
    # The first build of a (pair, d) lifts Z, and nothing else ...
    first = splitting.build(gp, spaces)
    assert lifted == [(4, 3)]
    # ... and an equal pair of distinct objects with the same d lifts nothing.
    equal = graphs.pair(
        graphs.AlgorithmicGraph(4, gp.g.edges), graphs.AlgorithmicGraph(4, gp.gp.edges)
    )
    assert equal is not gp
    again = splitting.build(equal, spaces)
    assert lifted == [(4, 3)]
    assert np.array_equal(again.T, first.T)
    # A supplied z is lifted on every call.
    for calls in (1, 2):
        splitting.build(gp, spaces, z=graphs.incidence(gp.gp))
        assert len(lifted) == 1 + calls
    # The cached factor and lift are shared and read-only, and a build with
    # the default factor holds the cached Z.
    lifts = splitting._lifts(gp, 3)
    assert len(lifts) == 2
    assert all(a is b for a, b in zip(splitting._lifts(equal, 3), lifts))
    assert first.Z is again.Z is lifts[0]
    assert len(lifted) == 3
    assert not any(m.flags.writeable for m in lifts)
    for m in lifts:
        with pytest.raises(ValueError):
            m[0, 0] = 1.0


def test_a_solve_off_inside_the_subspace_trips_the_residual_check(monkeypatch):
    # X_i = U_i y lies in the span of U_i whatever y is, and the residual of
    # a node's Newton step is -(G - I)^2 w, so only a node basis that is not
    # orthonormal can put y off. A drawn Q of norm 2 (G = 4 I) must trip the
    # check of the draw, before any build, with the exit-3 error class.
    assert splitting.SelfCheckFailedError is matlin.SelfCheckFailedError
    monkeypatch.setattr(matlin, "qr", doubled_qr)
    message = r"^random_subspace: drawn basis is not orthonormal \(max \|Q\^T Q - I\| = 3\.000e\+00\)$"
    with pytest.raises(splitting.SelfCheckFailedError, match=message):
        subspaces.random_subspace(3, 2, 2)


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
    with pytest.raises(ValueError, match="^Z Z\\^T does not reproduce the subgraph Laplacian$"):
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
    report = splitting.spectral_report(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert report.normality_defect == pytest.approx(1.0, abs=1e-12)
    assert report.iso_defect > 0.5
    assert not report.is_normal and not report.is_iso_averaged


def test_certificates_projector_is_clean():
    report = splitting.spectral_report(np.diag([1.0, 0.0]))
    assert report.normality_defect == 0.0
    assert report.iso_defect == 0.0
    assert report.is_normal and report.is_iso_averaged


def test_certificates_isometry_defect_is_twice_iso_and_norm_matches_numpy():
    # (2T - I)^T (2T - I) - I = 2 (2 T^T T - T - T^T), so the isometry
    # defect of 2T - I needs no norm of its own. Under its floor the iso
    # defect prints as 0, and numpy's isometry defect is round-off of the
    # floor's size.
    ring_seq = graphs.pair(graphs.preset("ring", 4), graphs.preset("sequential", 4))
    spaces = subspaces.product([subspaces.random_subspace(2, 1, 900 + i) for i in range(4)])
    for t in (
        np.array([[0.0, 1.0], [0.0, 0.0]]),
        np.diag([1.0, 0.0]),
        random_operator(seed=901).T,
        splitting.build(ring_seq, spaces).T,
    ):
        report = splitting.spectral_report(t)
        s = 2.0 * t - np.eye(t.shape[0])
        isometry = np.linalg.norm(s.T @ s - np.eye(t.shape[0]), 2)
        if report.iso_defect == 0.0:
            assert isometry <= 3.0 * defect_floor(t)
        else:
            assert isometry == pytest.approx(2.0 * report.iso_defect, rel=1e-12, abs=1e-15)
        assert matlin.operator_norm(t) == pytest.approx(np.linalg.norm(t, 2), rel=1e-12)


def test_certificates_half_shifted_permutation():
    # Averaging the identity with a sign-flipped permutation is the model
    # iso-averaged map.
    p = np.eye(4)[[1, 2, 3, 0]]
    c = 0.5 * (np.eye(4) - p)
    assert splitting.spectral_report(np.eye(4) - c).iso_defect <= 1e-12
    assert splitting.spectral_report(c).iso_defect <= 1e-12


def test_spectral_report_identity():
    report = splitting.spectral_report(np.eye(3))
    assert report.rho1 == 0.0
    assert report.fix_dim == 3
    assert report.is_normal and report.is_iso_averaged


def test_spectral_report_of_the_empty_map():
    report = splitting.spectral_report(np.zeros((0, 0)))
    assert report.is_normal and report.is_iso_averaged
    assert report.eigenvalues == report.eigenvalues_off_one == ()
    assert report.fix_dim == 0 and report.rho1 == 0.0
    assert report.fix_basis.shape == (0, 0)


ENTRY_POINTS = {
    "relax": lambda t: splitting.relax(t, 0.5),
    "spectral_report": splitting.spectral_report,
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize(
    "bad, message",
    [
        (np.ones(3), r"^t must be a square 2-d array, got shape \(3,\)$"),
        (np.ones((3, 2)), r"^t must be a square 2-d array, got shape \(3, 2\)$"),
        (np.ones((2, 2, 2)), r"^t must be a square 2-d array, got shape \(2, 2, 2\)$"),
        (np.array([[1.0, np.inf], [0.0, 1.0]]), "^t must have finite entries$"),
        (np.array([[np.nan, 0.0], [0.0, 1.0]]), "^t must have finite entries$"),
    ],
)
def test_bad_t_is_one_value_error_that_names_t(entry, bad, message):
    with warnings.catch_warnings():
        # The check comes before any arithmetic on t: no RuntimeWarning.
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            ENTRY_POINTS[entry](bad)


LAPACK = (
    "solve", "inv", "eig", "eigvals", "eigh", "eigvalsh", "svd", "qr", "lstsq", "det", "slogdet",
    "cholesky", "pinv", "matrix_rank",
)


def _bar_lapack(monkeypatch):
    def barred(*args, **kwargs):
        raise AssertionError("graphsplit called LAPACK")

    for name in LAPACK:
        monkeypatch.setattr(np.linalg, name, barred)


def test_the_analysis_of_t_calls_no_lapack(monkeypatch):
    _bar_lapack(monkeypatch)
    ts = [np.eye(3), np.zeros((3, 3))]
    for k, (_, make) in enumerate(experiments.pair_catalog()):
        dims = [(k + i) % 4 for i in range(4)]
        spaces = subspaces.product(
            subspaces.random_subspace(3, dim, 40 * k + i) for i, dim in enumerate(dims)
        )
        ts.append(splitting.build(make(4), spaces).T)
    for t in ts:
        full_report(t)


def test_the_cli_calls_no_lapack(monkeypatch, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "graph": {"preset": "ring", "n": 4},
        "subgraph": {"preset": "sequential", "n": 4},
        "ambient": 2,
        "spaces": [{"kind": "random", "dim": 1, "seed": 10 + i} for i in range(4)],
        "thetas": [0.5, 1.0],
        "eps": 1e-6,
    }))
    # No factor, lift or witness search may come from a cache filled before the bar.
    splitting._lifts.cache_clear()
    experiments._witness_search.cache_clear()
    _bar_lapack(monkeypatch)
    for argv in (
        ["analyze", "--config", str(config)],
        ["sweep", "--config", str(config)],
        ["verify", "--trials", "2"],
        ["demo", "all"],
    ):
        assert cli.main(argv) == 0, argv


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
    with pytest.raises(ValueError, match=r"^relaxation parameter must lie in \(0, 2\)$"):
        splitting.predicted_rate(0.5, 0.0)
    with pytest.raises(ValueError, match=r"^relaxation parameter must lie in \(0, 2\)$"):
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
    n0 = splitting.spectral_report(op.T)
    n1 = splitting.spectral_report(re.T)
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
    with pytest.raises(ValueError, match="^Z Z\\^T does not reproduce the subgraph Laplacian$"):
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
    base = splitting.spectral_report(op.T).normality_defect
    assert base > 1e-3
    for theta in (0.3, 0.8, 1.5):
        relaxed = splitting.spectral_report(splitting.relax(op.T, theta)).normality_defect
        assert abs(relaxed - theta**2 * base) <= 1e-10


def test_iso_circle_for_iso_operators():
    for k in range(5):
        op = random_operator(seed=800 + k)
        report = splitting.spectral_report(op.T)
        assert report.is_iso_averaged
        assert 0.0 <= report.rho1 <= 1.0
        for lam in report.eigenvalues:
            assert abs(abs(lam) ** 2 - lam.real) <= 1e-7
