"""Convergence traces, sweeps, behavioral checks, and the example catalog."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import assert_rate, exact_rate, random_operator

from graphsplit import experiments, graphs, matlin, splitting, subspaces
from graphsplit._rng import SplitMix64


def test_converge_from_fixed_point():
    op, v0, _, _ = experiments.three_lines_example()
    f = splitting.fix_basis(op.T)
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
    with pytest.raises(ValueError, match=r"^relaxation parameter must lie in \(0, 2\)$"):
        experiments.converge(op, 2.0, v0)
    with pytest.raises(ValueError):
        experiments.converge(op, 1.0, v0, eps=0.0)
    for k_max in (10.5, True):
        with pytest.raises(ValueError, match="^k_max "):
            experiments.converge(op, 1.0, v0, k_max=k_max)
        with pytest.raises(ValueError, match="^k_max "):
            experiments.theta_sweep(op, [0.5, 1.0], v0, k_max=k_max)


@pytest.mark.parametrize("d", [1.0, True, 0, -1, "2", None])
def test_witness_search_rejects_a_bad_dimension(d):
    gp = graphs.pair(graphs.preset("ring", 4), graphs.preset("sequential", 4))
    # A cached d = 1 result must not answer for 1.0 or True, which hash alike.
    assert experiments.witness_search(gp, 1).found
    with pytest.raises(ValueError, match="^d must be an integer of at least 1"):
        experiments.witness_search(gp, d)


def test_geometric_limit_matches_closed_form():
    op, v0, mu, limit = experiments.three_lines_example()
    assert mu == pytest.approx(-15.0 / 17.0, abs=1e-15)
    f = splitting.fix_basis(op.T)
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


def _oracle_run(t, theta, v, limit, eps, k_max):
    """One relaxed run, one theta at a time: the reference for the stacked loop."""
    t_theta = splitting.relax(t, theta)
    points = []
    k_stop = None
    for k in range(k_max + 1):
        dist = float(np.linalg.norm(v - limit))
        points.append((k, dist))
        if dist < eps:
            k_stop = k
            break
        if k < k_max:
            v = t_theta @ v
    return points, k_stop, exact_rate(points)


def _assert_sweep_matches_oracle(t, thetas, v0, eps, k_max):
    f = splitting.fix_basis(t)
    limit = f @ (f.T @ v0)
    records = experiments.theta_sweep(t, thetas, v0, eps=eps, k_max=k_max)
    assert [r.theta for r in records] == list(thetas)
    runs = [_oracle_run(t, theta, v0, limit, eps, k_max) for theta in thetas]
    for rec, (_, k_stop, rate) in zip(records, runs):
        assert rec.k_stop == k_stop, rec.theta
        assert_rate(rec.rho1_measured, rate)
    if thetas:
        # converge is the one-theta case of the same loop and the same fit.
        points, k_stop, _ = runs[0]
        trace = experiments.converge(t, thetas[0], v0, eps=eps, k_max=k_max)
        assert trace.points == points
        assert (trace.k_stop, trace.measured_rate) == (k_stop, records[0].rho1_measured)
    return [k_stop for _, k_stop, _ in runs]


def test_rate_fit_is_exact_where_np_log_and_math_log_differ():
    # The fit takes np.log over the whole tail, which can round differently
    # from the oracle's per-point math.log; feed it such values.
    x = np.exp(np.random.default_rng(0).uniform(-25.0, 2.0, 100000))
    differ = x[np.log(x) != np.array([math.log(v) for v in x.tolist()])]
    assert len(differ) > 0
    traces = [x[:300]] + [np.array([1.0, 1.0, v, 1.0]) for v in differ]
    for dists, got in zip(traces, experiments._fit_rates(traces)):
        assert_rate(got, exact_rate(list(enumerate(dists.tolist()))))
    assert experiments._fit_rates([np.array([0.5, 1e-14])]) == [None]


def test_rate_fits_on_gappy_and_shared_tails_are_exact():
    # Every trace is fitted on its own: on contiguous tails (every distance
    # usable), non-contiguous ones (distances at or below the floor in
    # between, or not finite) and tails that several traces share, a rate
    # fitted among others has the bits of the same trace fitted alone.
    rng = np.random.default_rng(5)
    contiguous = [np.exp(rng.uniform(-20.0, 1.0, 200)) for _ in range(3)]
    gappy = []
    for _ in range(4):
        dists = np.exp(rng.uniform(-20.0, 1.0, 150))
        dists[[20, 90, 91, 140]] = [1e-14, 0.0, experiments.RATE_FLOOR, 1e-30]
        gappy.append(dists)
    gappy[-2][120] = math.inf
    gappy[-1][100] = math.nan
    traces = contiguous + gappy + [contiguous[0][:57], np.array([2.0]), np.array([])]
    want = [exact_rate(list(enumerate(dists.tolist()))) for dists in traces]
    assert want.count(None) == 2
    got = experiments._fit_rates(traces)
    for rate, exact in zip(got, want):
        assert_rate(rate, exact)
    assert [experiments._fit_rates([dists])[0] for dists in traces] == got


def test_a_divergent_run_measures_its_rate():
    # 3^k overflows its squared distance near k = 323; the distances past it
    # are inf, which the fit leaves out, as it does those at the floor.
    t = np.array([[3.0]])
    with np.errstate(over="ignore"):
        [record] = experiments.theta_sweep(t, [1.0], [1.0], k_max=5000)
        trace = experiments.converge(t, 1.0, [1.0], k_max=5000)
    assert record.k_stop is None
    assert abs(record.rho1_measured - 3.0) <= 1e-12
    assert trace.measured_rate == record.rho1_measured
    assert math.isinf(trace.points[-1][1])


def test_stacked_sweep_matches_oracle_on_random_operators():
    thetas = [0.2, 0.6, 1.0, 1.3, 1.8]
    stops = []
    for seed in range(50):
        t = random_operator(seed).T
        v0 = SplitMix64(1000 + seed).normals(t.shape[0])
        order = thetas[seed % 5 :] + thetas[: seed % 5]  # converge checks order[0]
        stops += _assert_sweep_matches_oracle(t, order, v0, 1e-9, 300)
    # Both outcomes occur: runs that stop early and runs that use the budget.
    assert None in stops and any(k is not None and k < 300 for k in stops)


def test_stacked_sweep_matches_oracle_on_a_built_operator():
    ring_seq = graphs.pair(graphs.preset("ring", 4), graphs.preset("sequential", 4))
    spaces = subspaces.product([subspaces.random_subspace(2, 1, 70 + i) for i in range(4)])
    t = splitting.build(ring_seq, spaces).T
    assert not splitting.certificates(t).is_iso_averaged
    v0 = SplitMix64(71).normals(t.shape[0])
    thetas = [0.1 * i for i in range(1, 20)]
    stops = _assert_sweep_matches_oracle(t, thetas, v0, 1e-10, 400)
    assert len(set(stops)) > 3


def test_stacked_sweep_stops_at_different_iterations():
    # T = diag(1, 1/2, 0): T_theta shrinks the second coordinate by
    # 1 - theta/2 and the third by 1 - theta, so each theta stops at its own k.
    t = np.diag([1.0, 0.5, 0.0])
    v0 = np.array([3.0, 1.0, 1.0])
    thetas = [1.0, 0.3, 1.9, 0.7, 1.2]
    stops = _assert_sweep_matches_oracle(t, thetas, v0, 1e-6, 1000)
    assert len(set(stops)) == len(thetas)
    # A start in the fixed subspace stops at once, and a start within eps
    # of it too.
    assert _assert_sweep_matches_oracle(t, thetas, np.array([3.0, 0.0, 0.0]), 1e-6, 50) == [0] * 5
    near = np.array([3.0, 1e-7, 0.0])
    assert _assert_sweep_matches_oracle(t, [0.5, 1.5], near, 1e-6, 50) == [0, 0]


@pytest.mark.parametrize("k_max", [0, 1, 2, 25, 31, 32, 33])
def test_stacked_sweep_budget_edges(k_max):
    op, v0, _, _ = experiments.three_lines_example()
    thetas = [1.0, 0.4, 1.6]
    assert _assert_sweep_matches_oracle(op.T, thetas, v0, 1e-300, k_max) == [None] * 3
    trace = experiments.converge(op, 1.0, v0, eps=1e-300, k_max=k_max)
    assert [k for k, _ in trace.points] == list(range(k_max + 1))


# On T = diag(1, 0), T_theta = diag(1, 1 - theta): from (3, 1) the distance
# to the limit (3, 0) is |1 - theta|^k, exactly 2^-k at theta = 1/2.
HALVING = np.diag([1.0, 0.0])
HALVING_V0 = np.array([3.0, 1.0])


@pytest.mark.parametrize("k_stop", [0, 31, 32, 33, 64])
def test_stacked_sweep_stops_at_block_edges(k_stop):
    # 2^-k < eps = 2^(1 - k_stop) first holds at k = k_stop.
    eps = 2.0 ** (1 - k_stop)
    for k_max in (k_stop, k_stop + 1, 100):
        stops = _assert_sweep_matches_oracle(HALVING, [0.5, 1.5], HALVING_V0, eps, k_max)
        assert stops == [k_stop, k_stop]


@pytest.mark.parametrize("k_max", [0, 1, 31, 32, 33, 39])
def test_stacked_sweep_computes_no_iterate_past_the_budget(k_max):
    # Each run would stop at k = 40, inside the block that holds k_max + 1.
    eps = 2.0**-39
    assert _assert_sweep_matches_oracle(HALVING, [0.5], HALVING_V0, eps, k_max) == [None]
    assert _assert_sweep_matches_oracle(HALVING, [0.5], HALVING_V0, eps, 40) == [40]


def test_stacked_sweep_stops_many_thetas_in_one_block():
    thetas = [0.5, 0.45, 0.55, 0.4, 1.5, 0.36]
    stops = _assert_sweep_matches_oracle(HALVING, thetas, HALVING_V0, 1e-12, 200)
    assert stops == [40, 47, 35, 55, 40, 62]
    # One theta stops while the others use the whole budget.
    stops = _assert_sweep_matches_oracle(HALVING, [0.05, 0.5, 1.95], HALVING_V0, 1e-12, 100)
    assert stops == [None, 40, None]


def _sweeps_and_traces():
    runs = []
    for seed in range(6):
        t = random_operator(seed).T
        v0 = SplitMix64(2000 + seed).normals(t.shape[0])
        thetas = [0.2, 0.6, 1.0, 1.3, 1.8]
        runs.append(experiments.theta_sweep(t, thetas, v0, eps=1e-9, k_max=150))
        runs.append(experiments.converge(t, thetas[seed % 5], v0, eps=1e-9, k_max=150))
    runs.append(experiments.theta_sweep(HALVING, [0.5, 0.45, 1.4], HALVING_V0, 1e-12, 70))
    return runs


@pytest.mark.parametrize("block", [1, 2, 7])
def test_block_size_leaves_every_record_unchanged(monkeypatch, block):
    default = _sweeps_and_traces()
    monkeypatch.setattr(experiments, "_BLOCK", block)
    assert _sweeps_and_traces() == default


def test_a_huge_budget_costs_no_memory_when_the_run_stops_early():
    tracemalloc.start()
    try:
        [(k_stop, dists)] = experiments._relaxed_runs(
            HALVING, [0.5], HALVING_V0, np.array([3.0, 0.0]), 2.0**-19, 10**9
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert k_stop == 20 and len(dists) == 21
    assert peak < 2**20


def test_stacked_sweep_single_and_empty_theta_lists():
    op, v0, _, _ = experiments.three_lines_example()
    _assert_sweep_matches_oracle(op.T, [1.0], v0, 1e-8, 500)
    assert experiments.theta_sweep(op, [], v0) == []
    [record] = experiments.theta_sweep(op, [0.7], v0, eps=1e-8)
    trace = experiments.converge(op, 0.7, v0, eps=1e-8)
    assert (record.k_stop, record.rho1_measured) == (trace.k_stop, trace.measured_rate)


def test_sweep_checks_inputs_before_iterating(monkeypatch):
    op, v0, _, _ = experiments.three_lines_example()

    def no_step(*args, **kwargs):
        raise AssertionError("iterated before the inputs were checked")

    # Relaxing T is the first step of any run, and matmul advances it.
    monkeypatch.setattr(splitting, "relax", no_step)
    monkeypatch.setattr(np, "matmul", no_step)
    with pytest.raises(ValueError, match=r"^relaxation parameter must lie in \(0, 2\)$"):
        experiments.theta_sweep(op, [0.5, 2.0], v0)
    with pytest.raises(ValueError, match="eps"):
        experiments.theta_sweep(op, [0.5, 1.0], v0, eps=0.0)
    with pytest.raises(ValueError, match="eps"):
        experiments.theta_sweep(op, [1.0], v0, eps=-1e-6)
    with pytest.raises(ValueError, match="k_max"):
        experiments.converge(op, 1.0, v0, k_max=-1)


def test_sweep_accepts_a_generator_of_thetas():
    op, v0, _, _ = experiments.three_lines_example()
    thetas = [0.5, 1.0, 1.5]
    from_list = experiments.theta_sweep(op, thetas, v0)
    assert experiments.theta_sweep(op, (theta for theta in thetas), v0) == from_list


def test_sweep_takes_the_fixed_basis_once(monkeypatch):
    # One analysis of T serves every theta: T - I is factored once, for the
    # fixed basis that the limit point and the report's fix_dim both read.
    op, v0, _, _ = experiments.three_lines_example()
    calls = []
    original = matlin.null_space

    def counting(a):
        calls.append(a.shape)
        return original(a)

    monkeypatch.setattr(matlin, "null_space", counting)
    experiments.theta_sweep(op, [0.5, 1.0, 1.5], v0)
    assert calls == [(op.size, op.size)]
    report = splitting.spectral_report(op.T)
    assert len(calls) == 2
    assert not hasattr(report, "fixed_basis")
    assert splitting.fix_basis(op.T).shape == (op.size, report.fix_dim)


def test_measured_rate_tracks_prediction():
    op = random_operator(seed=31)
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
    op = random_operator(seed=51)
    x = SplitMix64(52).normals(op.size)
    grid = [0.05 * i for i in range(1, 40)]
    assert experiments.convexity_check(op.T, x, 2, grid) <= 1e-9


def test_convexity_check_counterexample():
    t = np.array([[0.0, 1.0], [0.0, 0.0]])
    x = np.array([0.0, 1.0])
    with pytest.raises(ValueError, match="^normality defect 1.000e[+]00 is too large$"):
        experiments.convexity_check(t, x, 2, [0.0, 1.0])
    gap = experiments.convexity_check(t, x, 2, [0.0, 1.0], require_normal=False)
    assert gap == pytest.approx(np.sqrt(5.0) / 4.0 - 0.5, abs=1e-12)


def test_convexity_check_identity_flat():
    gap = experiments.convexity_check(np.eye(3), np.array([1.0, 2.0, 3.0]), 3, [0.2, 0.6, 1.0])
    assert abs(gap) <= 1e-12


def test_monotonicity_check_strict_decrease():
    op = random_operator(seed=61)
    rng = SplitMix64(62)
    f = splitting.fix_basis(op.T)
    for theta in (0.5, 1.0, 1.5):
        x = rng.normals(op.size)
        x = x - f @ (f.T @ x)
        if theta == 1.0:
            kernel = matlin.null_space(op.T)
            x = x - kernel @ (kernel.T @ x)
        assert experiments.monotonicity_check(op, theta, x)


def test_monotonicity_check_excluded_inputs():
    op, v0, _, _ = experiments.three_lines_example()
    f = splitting.fix_basis(op.T)
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
    with pytest.raises(ValueError, match="^strict decrease is only guaranteed for iso-averaged maps$"):
        experiments.monotonicity_check(t, 0.5, np.ones(3))


def test_monotonicity_reads_only_the_iso_verdict(monkeypatch):
    # The verdict, not the certificates: the bounds of A decide it on the
    # three-lines map, so the check takes no spectral norm.
    op, v0, _, _ = experiments.three_lines_example()
    f = splitting.fix_basis(op.T)
    x = v0 - f @ (f.T @ v0)
    calls = []
    original = matlin.operator_norm

    def counting(a):
        calls.append(np.shape(a))
        return original(a)

    monkeypatch.setattr(matlin, "operator_norm", counting)
    for theta in (0.5, 1.5):
        assert experiments.monotonicity_check(op, theta, x)
    assert calls == []


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
    # Draws with dim == d take the full space I in place of Q Q^T, so a
    # trial's T moves at round-off; its verdict must not.
    for seed in range(30):
        records = experiments.graph_equality_trials(seed, 3)
        assert len(records) == 3 * len(experiments.pair_catalog())
        assert all(r.consistent for r in records), seed
    with pytest.raises(ValueError):
        experiments.graph_equality_trials(seed=1, trials=0)


def test_random_operator_deterministic():
    a = random_operator(seed=5)
    b = random_operator(seed=5)
    assert np.array_equal(a.T, b.T)


def test_demo_catalog_all_pass():
    for name in experiments.demo_names():
        report = experiments.run_demo(name)
        failed = [line.label for line in report.lines if not line.passed]
        assert report.passed, (name, failed)


def test_demo_unknown_name():
    with pytest.raises(ValueError, match="^unknown example 'nonexistent'; available: not-normal, "):
        experiments.run_demo("nonexistent")


NAN_MAP = np.full((4, 4), np.nan)
GOOD_MAP = np.eye(4) - np.diag([0.5, 0.5, 0.0, 0.0])


@pytest.mark.parametrize(
    "name,call",
    [
        ("v0", lambda op, v0: experiments.converge(op, 1.0, v0[:2])),
        ("v0", lambda op, v0: experiments.converge(op, 1.0, np.full(4, np.nan))),
        ("eps", lambda op, v0: experiments.converge(op, 1.0, v0, eps=np.nan)),
        ("v0", lambda op, v0: experiments.theta_sweep(op, [0.5, 1.0], v0[:2])),
        ("v0", lambda op, v0: experiments.theta_sweep(op, [0.5, 1.0], np.full(4, np.nan))),
        ("v0", lambda op, v0: experiments.converge(op, 1.0, 1e200 * v0)),
        ("op", lambda op, v0: experiments.converge(NAN_MAP, 1.0, v0)),
        ("t", lambda op, v0: experiments.symmetry_check(NAN_MAP, v0, [0.5], 3)),
        ("x", lambda op, v0: experiments.symmetry_check(GOOD_MAP, np.full(4, np.nan), [0.5], 3)),
        ("thetas", lambda op, v0: experiments.symmetry_check(GOOD_MAP, v0, [], 3)),
        ("thetas", lambda op, v0: experiments.symmetry_check(GOOD_MAP, v0, [np.nan], 3)),
        ("k_max", lambda op, v0: experiments.symmetry_check(GOOD_MAP, v0, [0.5], 0)),
        pytest.param("k_max", lambda op, v0: experiments.symmetry_check(GOOD_MAP, v0, [0.5], 2.5),
                     id="k_max-fraction"),
        pytest.param("k_max", lambda op, v0: experiments.symmetry_check(GOOD_MAP, v0, [0.5], True),
                     id="k_max-bool"),
        pytest.param("k", lambda op, v0: experiments.convexity_check(np.eye(4), v0, 2.5, [0, 1]),
                     id="k-fraction"),
        pytest.param("k", lambda op, v0: experiments.convexity_check(np.eye(4), v0, True, [0, 1]),
                     id="k-bool"),
        ("x", lambda op, v0: experiments.convexity_check(np.eye(4), np.full(4, np.nan), 2, [0, 1])),
        ("grid", lambda op, v0: experiments.convexity_check(np.eye(4), v0, 2, [])),
        ("grid", lambda op, v0: experiments.convexity_check(np.eye(4), v0, 2, [1.0])),
        ("grid", lambda op, v0: experiments.convexity_check(np.eye(4), v0, 2, [0.0, np.nan])),
        ("trials", lambda op, v0: experiments.graph_equality_trials(1, 2.5)),
        ("trials", lambda op, v0: experiments.graph_equality_trials(1, True)),
        ("i", lambda op, v0: subspaces.coordinate_product(3, 1.5, 2)),
        ("dim", lambda op, v0: subspaces.random_subspace(3, 1.5, 1)),
        ("dim", lambda op, v0: subspaces.random_subspace(3, True, 1)),
    ],
)
def test_bad_inputs_name_their_argument(name, call):
    op, v0, _, _ = experiments.three_lines_example()
    with pytest.raises(ValueError, match=f"^{name} "):
        call(op, v0)


def test_a_start_whose_squared_norm_overflows_is_rejected():
    # Each entry of 1e200 v0 is finite, but its distances would all read inf,
    # leaving the run with no stop and no rate. 2^500 v0 is accepted: its
    # distances are those of v0 scaled exactly, and so is its rate, to the
    # rounding of the shifted logs.
    op, v0, _, _ = experiments.three_lines_example()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^v0 .* finite squared norm$"):
            experiments.theta_sweep(op, [1.0], 1e200 * v0)
        big = experiments.converge(op, 1.0, 2.0**500 * v0, eps=1e-300, k_max=30)
    unit = experiments.converge(op, 1.0, v0, eps=1e-300, k_max=30)
    assert [dist for _, dist in big.points] == [2.0**500 * dist for _, dist in unit.points]
    assert_rate(big.measured_rate, unit.measured_rate)


def test_overflowing_norms_give_no_convexity_verdict():
    # (1 + theta)^2000 overflows: the gaps are inf - inf, which must not
    # read as convex (a loop of Python max over the gaps returned -inf).
    with np.errstate(over="ignore", invalid="ignore"):
        gap = experiments.convexity_check(2.0 * np.eye(2), np.ones(2), 2000, [0.5, 1.0, 1.5],
                                          require_normal=False)
    assert math.isnan(gap)


# The relaxed-map loops of the checks and demos as they were before
# `_relaxed_runs` ran them: one theta at a time, one 2-d matvec per step and
# np.linalg.norm per iterate. The routed checks must keep their bits.

def _loop_symmetry(t, x, thetas, k_max):
    worst = 0.0
    for theta in thetas:
        ya = x.copy()
        yb = x.copy()
        ta = splitting.relax(t, theta)
        tb = splitting.relax(t, 2.0 - theta)
        for _ in range(k_max):
            ya = ta @ ya
            yb = tb @ yb
            worst = max(worst, abs(float(np.linalg.norm(ya)) - float(np.linalg.norm(yb))))
    return worst


def _loop_norm(t, theta, x, k):
    y = x.copy()
    t_theta = splitting.relax(t, theta)
    for _ in range(k):
        y = t_theta @ y
    return float(np.linalg.norm(y))


def _loop_convexity(t, x, k, grid):
    grid = sorted(float(g) for g in grid)
    worst = -math.inf
    for lo, hi in zip(grid, grid[1:]):
        gap = _loop_norm(t, 0.5 * (lo + hi), x, k) - 0.5 * (
            _loop_norm(t, lo, x, k) + _loop_norm(t, hi, x, k)
        )
        worst = max(worst, gap)
    return worst


def _loop_monotonicity(t, theta, x, k_max):
    f = splitting.fix_basis(t)
    limit = f @ (f.T @ x)
    t_theta = splitting.relax(t, theta)
    y = x.copy()
    prev = float(np.linalg.norm(y))
    for _ in range(k_max):
        if float(np.linalg.norm(y - limit)) <= 1e-12:
            break
        y = t_theta @ y
        cur = float(np.linalg.norm(y))
        if not cur < prev:
            return False
        prev = cur
    return True


def _zero_map():
    # Orthogonal lines: the pairwise operator is the zero map, so iterates at
    # theta = 1 have norm exactly 0.
    u1 = subspaces.from_generators([np.array([1.0, 0.0])])
    u2 = subspaces.from_generators([np.array([0.0, 1.0])])
    return splitting.build(graphs.pair(graphs.preset("sequential", 2)), subspaces.product([u1, u2]))


def _subjects():
    for seed in range(8):
        op = random_operator(seed)
        yield op.T, SplitMix64(5000 + seed).normals(op.size)
    yield _zero_map().T, np.array([0.6, -0.8])


@pytest.mark.parametrize("k_max", [1, 2, 31, 32, 33, 70])
def test_symmetry_check_keeps_the_loop_bits(k_max):
    thetas = [0.1, 0.5, 1.0, 1.3]
    for t, x in _subjects():
        got = experiments.symmetry_check(t, x, thetas, k_max)
        assert got.hex() == _loop_symmetry(t, x, thetas, k_max).hex()


@pytest.mark.parametrize("k", [0, 1, 2, 31, 32, 33])
def test_convexity_check_keeps_the_loop_bits(k):
    grid = [0.0, 0.25, 0.5, 1.0, 1.4, 2.0]  # theta = 0 (T_0 = I) and theta = 2
    shift = np.array([[0.0, 1.0], [0.0, 0.0]])
    for t, x in [*_subjects(), (shift, np.array([0.0, 1.0]))]:
        got = experiments.convexity_check(t, x, k, grid, require_normal=False)
        assert got.hex() == _loop_convexity(t, x, k, grid).hex()


@pytest.mark.parametrize("k_max", [0, 1, 31, 32, 33, 10000])
def test_monotonicity_check_keeps_the_loop_verdict(k_max):
    cases = []
    for seed in range(8):
        op = random_operator(400 + seed)
        f = splitting.fix_basis(op.T)
        rng = SplitMix64(7000 + seed)
        for theta in (0.3, 1.0, 1.7):
            x = rng.normals(op.size)  # with a fixed component, so a nonzero limit
            cases.append((op.T, theta, x if theta != 1.0 else x - f @ (f.T @ x)))
    # The zero map halves at theta = 1/2: the floor arrives at k = 40, inside
    # the block 32 .. 63, and the norms decrease to the end.
    cases.append((_zero_map().T, 0.5, np.array([0.6, -0.8])))
    # diag(1, 0) at theta = 1/2 from (3, 1): the norms flatten at round-off
    # before the distance 2^-k reaches the floor at k = 40.
    cases.append((HALVING, 0.5, HALVING_V0))
    # From (c, 2^40 * 1e-12) the distance reaches the floor exactly at k = 40
    # (2^-k * 2^40 * 1e-12 is exact), so the norms up to k = 40 count. They
    # stop decreasing at round-off from k = 40 to 41 for c = 1e-4 (true) and
    # from k = 39 to 40 for c = 2e-4 (false).
    cases += [(HALVING, 0.5, np.array([c, 2.0**40 * 1e-12])) for c in (1e-4, 2e-4)]
    verdicts = set()
    for t, theta, x in cases:
        try:
            want = _loop_monotonicity(t, theta, x, k_max)
        except ValueError:
            continue
        try:
            got = experiments.monotonicity_check(t, theta, x, k_max)
        except experiments.ExcludedInputError:
            continue
        assert got is want, theta
        verdicts.add(got)
    assert True in verdicts and (k_max < 31 or False in verdicts)


def test_demos_keep_the_loop_bits():
    shift = np.array([[0.0, 1.0], [0.0, 0.0]])
    x = np.array([0.0, 1.0])
    f0, f_half, f1 = (_loop_norm(shift, theta, x, 2) for theta in (0.0, 0.5, 1.0))
    got = experiments._norms(shift, [0.0, 0.5, 1.0], x, 2)[:, 2].tolist()
    assert [v.hex() for v in got] == [v.hex() for v in (f0, f_half, f1)]
    lines = experiments.run_demo("not-normal").lines
    assert [line.measured for line in lines[:3]] == [f"{v:.12g}" for v in (f_half, f_half, 0.5 * (f0 + f1))]

    op, v0, _, limit = experiments.three_lines_example()
    v = v0.copy()
    for _ in range(5000):
        v = op.T @ v
    final_dist = float(np.linalg.norm(v - limit))
    [(_, dists)] = experiments._relaxed_runs(op.T, [1.0], v0, limit, 0.0, 5000)
    assert dists[5000].hex() == final_dist.hex()
    lo = experiments.converge(op, 0.2, v0, eps=1e-30, k_max=200).points
    hi = experiments.converge(op, 1.8, v0, eps=1e-30, k_max=200).points
    sym = max(abs(da - db) for (_, da), (_, db) in zip(lo, hi))
    f = splitting.fix_basis(op.T)
    (_, a), (_, b) = experiments._relaxed_runs(op.T, [0.2, 1.8], v0, f @ (f.T @ v0), 0.0, 200)
    assert float(np.max(np.abs(a - b))).hex() == sym.hex()
    lines = {line.label: line.measured for line in experiments.run_demo("geometric").lines}
    assert lines["distance to closed-form limit after 5000 steps"] == f"{final_dist:.12g}"
    assert lines["distance symmetry of 0.2 and 1.8 over 200 steps"] == f"{sym:.12g}"
