"""Convergence traces, sweeps, behavioral checks, and the example catalog."""

import numpy as np
import pytest

from graphsplit import experiments, graphs, matlin, splitting, subspaces
from graphsplit._rng import SplitMix64


def test_converge_from_fixed_point():
    op, v0, _, _ = experiments.three_lines_example()
    f = experiments.fix_basis(op.T)
    start = f @ (f.T @ v0)
    trace = experiments.converge(op, 1.0, start)
    assert trace.k_stop == 0
    assert trace.points[0][1] <= 1e-12


def test_converge_dr_rate_sixty_degrees():
    u1 = subspaces.from_generators([np.array([1.0, 0.0])])
    alpha = np.deg2rad(60.0)
    u2 = subspaces.from_generators([np.array([np.cos(alpha), np.sin(alpha)])])
    op = splitting.build(graphs.pair(graphs.preset("sequential", 2)), subspaces.product([u1, u2]))
    v0 = SplitMix64(3).normals(2)
    trace = experiments.converge(op, 1.0, v0, eps=1e-10)
    assert trace.k_stop is not None
    assert trace.measured_rate == pytest.approx(0.5, abs=0.02)


def test_converge_rejects_bad_parameters():
    op, v0, _, _ = experiments.three_lines_example()
    with pytest.raises(splitting.DomainError):
        experiments.converge(op, 2.0, v0)
    with pytest.raises(ValueError):
        experiments.converge(op, 1.0, v0, eps=0.0)


def test_geometric_limit_matches_closed_form():
    op, v0, mu, limit = experiments.three_lines_example()
    assert mu == pytest.approx(-15.0 / 17.0, abs=1e-15)
    f = experiments.fix_basis(op.T)
    assert f.shape[1] == 1
    # The fixed line is spanned by the stacked pair (mu a1, a3).
    w = np.concatenate([mu * np.array([-1.0, 6.0]), np.array([-3.0, -4.0])])
    w = w / np.linalg.norm(w)
    assert min(np.linalg.norm(f[:, 0] - w), np.linalg.norm(f[:, 0] + w)) <= 1e-8
    assert np.linalg.norm(f @ (f.T @ v0) - limit) <= 1e-9
    trace = experiments.converge(op, 1.0, v0, eps=1e-8, k_max=5000)
    assert trace.k_stop is not None


def test_theta_sweep_symmetry_and_optimum():
    op, v0, _, _ = experiments.three_lines_example()
    thetas = [i / 10.0 for i in range(1, 20)]
    records = experiments.theta_sweep(op, thetas, v0)
    stops = {round(r.theta, 2): r.k_stop for r in records}
    for i in range(1, 10):
        assert abs(stops[round(i / 10.0, 2)] - stops[round(2.0 - i / 10.0, 2)]) <= 1
    assert stops[1.0] == min(stops.values())
    for r in records:
        assert 0.0 <= r.rho1_predicted <= 1.0
        if abs(r.theta - 1.0) < 1e-12:
            assert r.rho1_measured == pytest.approx(r.rho1_predicted, abs=0.02)


def test_theta_sweep_non_iso_uses_spectrum():
    # The direct report of each relaxed matrix is the oracle for the
    # sweep's affine map of the unrelaxed spectrum.
    ring_seq = graphs.pair(graphs.preset("ring", 4), graphs.preset("sequential", 4))
    spaces = subspaces.product([subspaces.random_subspace(2, 1, 50 + i) for i in range(4)])
    built = splitting.build(ring_seq, spaces).T
    assert not splitting.certificates(built).is_iso_averaged
    thetas = [0.1, 0.5, 1.0, 1.5, 1.9]
    for t in (np.eye(3) - np.diag([0.5, 0.5, 0.0]), built):
        records = experiments.theta_sweep(t, thetas, np.ones(t.shape[0]), k_max=50)
        assert [r.theta for r in records] == thetas
        for r in records:
            relaxed_rho = splitting.spectral_report(splitting.relax(t, r.theta)).rho1
            assert r.rho1_predicted == pytest.approx(relaxed_rho, abs=1e-12)


def test_measured_rate_tracks_prediction():
    op = experiments.random_operator(seed=31)
    report = splitting.spectral_report(op.T)
    v0 = SplitMix64(32).normals(op.size)
    for theta in (0.7, 1.0, 1.3):
        trace = experiments.converge(op, theta, v0, eps=1e-11, k_max=20000)
        usable = [(k, d) for k, d in trace.points if 1e-12 < d < 1e-2]
        if len(usable) < 30 or trace.measured_rate is None:
            continue
        predicted = splitting.predicted_rate(report.rho1, theta)
        assert trace.measured_rate == pytest.approx(predicted, abs=0.03)


def test_distance_symmetry_between_mirrored_parameters():
    op, v0, _, _ = experiments.three_lines_example()
    for theta in (0.2, 0.6):
        a = experiments.converge(op, theta, v0, eps=1e-30, k_max=150)
        b = experiments.converge(op, 2.0 - theta, v0, eps=1e-30, k_max=150)
        gaps = [abs(da - db) for (_, da), (_, db) in zip(a.points, b.points)]
        assert max(gaps) <= 1e-8


def test_symmetry_check_iso_vs_not():
    op, v0, _, _ = experiments.three_lines_example()
    x = SplitMix64(41).normals(op.size)
    assert experiments.symmetry_check(op.T, x, [0.3, 0.7], 150) <= 1e-8 * (1 + np.linalg.norm(x))
    t_bad = np.eye(3) - np.diag([0.5, 0.5, 0.0])
    assert experiments.symmetry_check(t_bad, np.ones(3), [0.5], 3) > 1e-3


def test_convexity_check_normal_map():
    op = experiments.random_operator(seed=51)
    x = SplitMix64(52).normals(op.size)
    grid = [0.05 * i for i in range(1, 40)]
    assert experiments.convexity_check(op.T, x, 2, grid) <= 1e-9


def test_convexity_check_counterexample():
    t = np.array([[0.0, 1.0], [0.0, 0.0]])
    x = np.array([0.0, 1.0])
    with pytest.raises(experiments.NotNormalError):
        experiments.convexity_check(t, x, 2, [0.0, 1.0])
    gap = experiments.convexity_check(t, x, 2, [0.0, 1.0], require_normal=False)
    assert gap == pytest.approx(np.sqrt(5.0) / 4.0 - 0.5, abs=1e-12)


def test_convexity_check_identity_flat():
    gap = experiments.convexity_check(np.eye(3), np.array([1.0, 2.0, 3.0]), 3, [0.2, 0.6, 1.0])
    assert abs(gap) <= 1e-12


def test_monotonicity_check_strict_decrease():
    op = experiments.random_operator(seed=61)
    rng = SplitMix64(62)
    f = experiments.fix_basis(op.T)
    for theta in (0.5, 1.0, 1.5):
        x = rng.normals(op.size)
        x = x - f @ (f.T @ x)
        if theta == 1.0:
            kernel = matlin.null_space(op.T)
            x = x - kernel @ (kernel.T @ x)
        assert experiments.monotonicity_check(op, theta, x)


def test_monotonicity_check_excluded_inputs():
    op, v0, _, _ = experiments.three_lines_example()
    f = experiments.fix_basis(op.T)
    with pytest.raises(experiments.ExcludedInputError):
        experiments.monotonicity_check(op, 0.5, f[:, 0])
    # Orthogonal lines: the two reflectors compose to -I, so the pairwise
    # operator is the zero map and its kernel is everything.
    u1 = subspaces.from_generators([np.array([1.0, 0.0])])
    u2 = subspaces.from_generators([np.array([0.0, 1.0])])
    zero_op = splitting.build(
        graphs.pair(graphs.preset("sequential", 2)), subspaces.product([u1, u2])
    )
    assert np.max(np.abs(zero_op.T)) <= 1e-12
    kernel = matlin.null_space(zero_op.T)
    assert kernel.shape[1] == zero_op.size
    with pytest.raises(experiments.ExcludedInputError):
        experiments.monotonicity_check(zero_op, 1.0, kernel[:, 0])
    # The same start is legal for theta != 1 (only Fix T is excluded there).
    assert experiments.monotonicity_check(zero_op, 0.5, kernel[:, 0])


def test_monotonicity_requires_iso_averaged():
    t = np.eye(3) - np.diag([0.5, 0.5, 0.0])
    with pytest.raises(ValueError):
        experiments.monotonicity_check(t, 0.5, np.ones(3))


def test_witness_search_same_graph_finds_nothing():
    res = experiments.witness_search(graphs.pair(graphs.preset("sequential", 3)), 2)
    assert not res.found
    assert res.defect <= 1e-9


def test_witness_search_biparallel():
    gp = graphs.pair(graphs.preset("biparallel", 4), graphs.preset("parallel_up", 4))
    res = experiments.witness_search(gp, 2)
    assert res.found
    assert res.defect > 1e-6
    assert 1 <= res.index <= 4


def test_witness_search_malitsky_tam_full_spaces_stay_iso():
    gp = graphs.pair(graphs.preset("ring", 4), graphs.preset("sequential", 4))
    spaces = subspaces.product([subspaces.full(2)] * 4)
    op = splitting.build(gp, spaces)
    assert splitting.certificates(op.T).iso_defect <= 1e-9
    assert experiments.witness_search(gp, 2).found


def test_graph_equality_trials_consistent():
    records = experiments.graph_equality_trials(seed=7, trials=3)
    assert len(records) == 3 * len(experiments.pair_catalog())
    assert all(r.consistent for r in records)
    with pytest.raises(ValueError):
        experiments.graph_equality_trials(seed=1, trials=0)


def test_random_operator_deterministic():
    a = experiments.random_operator(seed=5)
    b = experiments.random_operator(seed=5)
    assert np.array_equal(a.T, b.T)


def test_demo_catalog_all_pass():
    for name in experiments.demo_names():
        report = experiments.run_demo(name)
        failed = [line.label for line in report.lines if not line.passed]
        assert report.passed, (name, failed)


def test_demo_unknown_name():
    with pytest.raises(experiments.UnknownExampleError):
        experiments.run_demo("nonexistent")
