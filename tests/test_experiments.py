"""Convergence traces, sweeps, behavioral checks, and the example catalog."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import EPS, assert_rate, exact_rate, full_report, random_operator
from relaxed_reference import EPS_LONG, long_double_norms, norm_bounds

from graphsplit import experiments, graphs, matlin, splitting, subspaces
from graphsplit._rng import SplitMix64


def test_converge_from_fixed_point():
    op, v0, _, _ = experiments.three_lines_example()
    f = splitting.spectral_report(op.T).fix_basis
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
    f = splitting.spectral_report(op.T).fix_basis
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
    assert not splitting.spectral_report(built).is_iso_averaged
    thetas = [0.1, 0.5, 1.0, 1.5, 1.9]
    for t in (np.eye(3) - np.diag([0.5, 0.5, 0.0]), built):
        records = experiments.theta_sweep(t, thetas, np.ones(t.shape[0]), k_max=50)
        assert [r.theta for r in records] == thetas
        for r in records:
            relaxed_rho = splitting.spectral_report(splitting.relax(t, r.theta)).rho1
            assert r.rho1_predicted == pytest.approx(relaxed_rho, abs=1e-12)


@pytest.fixture(params=["stepwise", "blocked"])
def block(request, monkeypatch):
    """The relaxed-run loop with one chain (_BLOCK = 1), the stepwise loop
    of the error whose bits `_stepwise` pins, or at its default _BLOCK
    chains; the sweep tests hold both within `relaxed_reference.norm_bounds`
    of the long double run of `relaxed_reference.long_double_norms`."""
    if request.param == "stepwise":
        monkeypatch.setattr(experiments, "_BLOCK", 1)
    return request.param


def _long_double(t, thetas, e0, eps, k_max):
    """The long double norms of the relaxed runs of thetas from e0, one row
    per theta, and their bounds at the loop's chain count."""
    t_thetas = np.stack([splitting.relax(t, theta) for theta in thetas])
    ref = long_double_norms(t_thetas, e0, eps, k_max)
    return ref, norm_bounds(t_thetas, ref, experiments._BLOCK)


def _stepwise(t, theta, e, eps, k_max):
    """The norms of one relaxed run from e as the loop computes them with
    one chain: each iterate the row of the last times the transposed
    relaxed map, its norm the square root of one dot product, up to the
    first norm below eps, or up to k_max."""
    t_theta = splitting.relax(t.T, theta)
    norms = [math.sqrt(e @ e)]
    while len(norms) <= k_max and not norms[-1] < eps:
        e = e @ t_theta
        norms.append(math.sqrt(e @ e))
    return norms


def _assert_sweep_matches_oracle(t, thetas, v0, eps, k_max):
    e0 = experiments._error(splitting.spectral_report(t).fix_basis, v0)
    records = experiments.theta_sweep(t, thetas, v0, eps=eps, k_max=k_max)
    assert [r.theta for r in records] == list(thetas)
    runs = experiments._relaxed_runs(t, list(thetas), e0, eps, k_max)
    refs, bounds = _long_double(t, thetas, e0, eps, k_max)
    for theta, rec, (k_stop, dists), ref, bound in zip(thetas, records, runs, refs, bounds):
        # Every norm lies within its bound of the long double norm. Where each
        # also lies farther than its bound from eps, or is the long double norm
        # exactly (the 2^-k of HALVING), the long double run decides the stop
        # exactly; where one does not, the stepwise float loop is the oracle.
        ref, bound = ref[: len(dists)], bound[: len(dists)]
        assert np.all(np.abs(dists - ref) <= bound), theta
        if np.all((np.abs(ref - eps) > bound) | (dists == ref)):
            below = np.flatnonzero(ref < eps)
            want = int(below[0]) if len(below) else None
        else:
            stepwise = _stepwise(t, theta, e0, eps, k_max)
            want = len(stepwise) - 1 if stepwise[-1] < eps else None
        assert rec.k_stop == k_stop == want, theta
        assert_rate(rec.rho1_measured, exact_rate(list(enumerate(dists.tolist()))))
        # The stepwise loop's bits with one chain.
        if experiments._BLOCK == 1:
            assert dists.tolist() == _stepwise(t, theta, e0, eps, k_max), theta
    # converge is the one-theta case of the same loop and the same fit: it
    # gives the bits of the first theta's run among all the others.
    k_stop, dists = runs[0]
    trace = experiments.converge(t, thetas[0], v0, eps=eps, k_max=k_max)
    assert trace.points == list(enumerate(dists.tolist()))
    assert (trace.k_stop, trace.measured_rate) == (k_stop, records[0].rho1_measured)
    return [k_stop for k_stop, _ in runs]


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


@pytest.mark.usefixtures("block")
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


@pytest.mark.usefixtures("block")
def test_stacked_sweep_matches_oracle_on_a_built_operator():
    ring_seq = graphs.pair(graphs.preset("ring", 4), graphs.preset("sequential", 4))
    spaces = subspaces.product([subspaces.random_subspace(2, 1, 70 + i) for i in range(4)])
    t = splitting.build(ring_seq, spaces).T
    assert not splitting.spectral_report(t).is_iso_averaged
    v0 = SplitMix64(71).normals(t.shape[0])
    thetas = [0.1 * i for i in range(1, 20)]
    stops = _assert_sweep_matches_oracle(t, thetas, v0, 1e-10, 400)
    assert len(set(stops)) > 3


@pytest.mark.usefixtures("block")
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


@pytest.mark.usefixtures("block")
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


@pytest.mark.usefixtures("block")
@pytest.mark.parametrize("k_stop", [0, 1, 2, 3, 4, 31, 32, 33, 63, 64, 65])
def test_stacked_sweep_stops_at_block_edges(k_stop):
    # 2^-k < eps = 2^(1 - k_stop) first holds at k = k_stop. With 32 chains
    # the stop test reads iterate 0, then each matmul's iterates: 1, 2 .. 3,
    # 4 .. 7, up to 16 .. 31 while the power doubles, then blocks of 32 from
    # 32 .. 63; with one chain it reads every iterate.
    eps = 2.0 ** (1 - k_stop)
    for k_max in (k_stop, k_stop + 1, 100):
        stops = _assert_sweep_matches_oracle(HALVING, [0.5, 1.5], HALVING_V0, eps, k_max)
        assert stops == [k_stop, k_stop]


@pytest.mark.usefixtures("block")
@pytest.mark.parametrize("k_max", [0, 1, 31, 32, 33, 39])
def test_stacked_sweep_computes_no_iterate_past_the_budget(k_max):
    # Each run would stop at k = 40, inside the block that holds k_max + 1.
    eps = 2.0**-39
    assert _assert_sweep_matches_oracle(HALVING, [0.5], HALVING_V0, eps, k_max) == [None]
    assert _assert_sweep_matches_oracle(HALVING, [0.5], HALVING_V0, eps, 40) == [40]


@pytest.mark.usefixtures("block")
def test_stacked_sweep_stops_many_thetas_in_one_block():
    thetas = [0.5, 0.45, 0.55, 0.4, 1.5, 0.36]
    stops = _assert_sweep_matches_oracle(HALVING, thetas, HALVING_V0, 1e-12, 200)
    assert stops == [40, 47, 35, 55, 40, 62]
    # One theta stops while the others use the whole budget.
    stops = _assert_sweep_matches_oracle(HALVING, [0.05, 0.5, 1.95], HALVING_V0, 1e-12, 100)
    assert stops == [None, 40, None]


@pytest.mark.parametrize("seed", [None, *range(10)])
def test_one_chain_is_the_stepwise_loop(monkeypatch, seed):
    # With b = 1 each iterate is one matmul of the last: the row times the
    # transposed relaxed map, and its norm the square root of one dot product.
    monkeypatch.setattr(experiments, "_BLOCK", 1)
    if seed is None:
        t, v0, eps = HALVING, HALVING_V0, 1e-12
    else:
        t = random_operator(seed).T
        v0, eps = SplitMix64(1000 + seed).normals(t.shape[0]), 1e-9
    thetas = [0.2, 0.6, 1.0, 1.3, 1.8]
    e0 = experiments._error(splitting.spectral_report(t).fix_basis, v0)
    for theta, (k_stop, dists) in zip(thetas, experiments._relaxed_runs(t, thetas, e0, eps, 300)):
        want = _stepwise(t, theta, e0, eps, 300)
        assert dists.tolist() == want, theta
        assert k_stop == (len(want) - 1 if want[-1] < eps else None)


@pytest.mark.parametrize("block", [1, 2, 4, 16, 64])
def test_every_block_size_keeps_the_stops_within_the_bound(monkeypatch, block):
    monkeypatch.setattr(experiments, "_BLOCK", block)
    thetas = [0.2, 0.6, 1.0, 1.3, 1.8]
    for seed in range(6):
        t = random_operator(seed).T
        v0 = SplitMix64(2000 + seed).normals(t.shape[0])
        _assert_sweep_matches_oracle(t, thetas[seed % 5 :] + thetas[: seed % 5], v0, 1e-9, 150)
    _assert_sweep_matches_oracle(HALVING, [0.5, 0.45, 1.4], HALVING_V0, 1e-12, 70)


@pytest.mark.parametrize("seed", [None, *range(8)])
def test_blocked_distances_agree_with_a_long_double_run(seed):
    # Random operators and thetas, over three full blocks and part of a
    # fourth: every distance lies within the bound of the long double run.
    if seed is None:
        t, thetas, v0 = HALVING, [0.5, 1.5], HALVING_V0
    else:
        t = random_operator(300 + seed).T
        thetas = np.random.default_rng(seed).uniform(0.02, 1.98, 7).tolist()
        v0 = SplitMix64(3000 + seed).normals(t.shape[0])
    e0 = experiments._error(splitting.spectral_report(t).fix_basis, v0)
    k_max = 3 * experiments._BLOCK + 5
    runs = experiments._relaxed_runs(t, thetas, e0, 0.0, k_max)
    refs, bounds = _long_double(t, thetas, e0, 0.0, k_max)
    for theta, (_, dists), ref, bound in zip(thetas, runs, refs, bounds):
        assert np.all(np.abs(dists - ref) <= bound), theta
        # The bound is far below the distances it bounds.
        assert np.all(bound <= 1e-12 * float(np.linalg.norm(v0)))
    if seed is None:
        # |1 - theta| = 1/2: the long double norms are exactly 2^-k, and both
        # runs to eps = 2^-39 stop at k = 40, their rows ending there.
        assert np.array_equal(refs, [[2.0**-k for k in range(k_max + 1)]] * 2)
        assert np.array_equal(_long_double(t, thetas, e0, 2.0**-39, k_max)[0], refs[:, :41])


@pytest.mark.parametrize("scale", [1e200, 1e110, 1e60, 1e30, 1e15, 1e9])
def test_the_chains_halve_until_their_power_is_finite(scale):
    # diag(scale, 1/2) from (0, 1): every iterate is (0, 2^-k), exactly, but
    # a power that overflows to inf would turn the zero into nan. The scales
    # overflow T^2, T^4, .. T^32 in turn, so b halves to 1, 2, .. 16, or none.
    t = np.diag([scale, 0.5])
    [(_, dists)] = experiments._relaxed_runs(t, [1.0], np.array([0.0, 1.0]), 0.0, 100)
    assert dists.tolist() == [2.0**-k for k in range(101)]


def test_a_huge_budget_costs_no_memory_when_the_run_stops_early():
    tracemalloc.start()
    try:
        [(k_stop, dists)] = experiments._relaxed_runs(HALVING, [0.5], np.array([0.0, 1.0]), 2.0**-19, 10**9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert k_stop == 20 and len(dists) == 21
    assert peak < 2**20


def test_thetas_past_the_byte_budget_run_in_turns_with_the_same_bits(monkeypatch):
    # Two powers and two blocks of nineteen 48 x 48 relaxed maps take
    # 1.2 MB; with a budget of 256 KiB they run in turns of four, in loops
    # of their own, within the budget, and every theta keeps the bits of
    # the whole run.
    spaces = subspaces.product([subspaces.random_subspace(4, 2, 90 + i) for i in range(13)])
    t = splitting.build(graphs.pair(graphs.preset("ring", 13)), spaces).T
    assert t.shape == (48, 48)
    thetas = [0.1 * i for i in range(1, 20)]
    e0 = experiments._error(splitting.spectral_report(t).fix_basis, SplitMix64(91).normals(48))
    peaks, runs = [], []
    for budget in (experiments._TURN_BYTES, 2**18):
        monkeypatch.setattr(experiments, "_TURN_BYTES", budget)
        tracemalloc.start()
        try:
            runs.append(experiments._relaxed_runs(t, thetas, e0, 1e-3, 200))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] > 2**20 and peaks[1] < 2**18 + 2**16
    whole, turns = runs
    assert [(k, d.tolist()) for k, d in whole] == [(k, d.tolist()) for k, d in turns]
    stops = [k_stop for k_stop, _ in whole]
    assert None in stops and len(set(stops)) > 5


@pytest.mark.usefixtures("block")
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
    report = full_report(op.T)
    assert len(calls) == 2
    assert not hasattr(report, "fixed_basis")
    assert report.fix_basis.shape == (op.size, report.fix_dim)
    assert len(calls) == 2


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
    f = splitting.spectral_report(op.T).fix_basis
    for theta in (0.5, 1.0, 1.5):
        x = rng.normals(op.size)
        x = x - f @ (f.T @ x)
        if theta == 1.0:
            kernel = matlin.null_space(op.T)
            x = x - kernel @ (kernel.T @ x)
        assert experiments.monotonicity_check(op, theta, x)


def _zero_map():
    # Orthogonal lines: the two reflectors compose to -I, so the pairwise
    # operator is the zero map, its kernel is everything, and iterates at
    # theta = 1 have norm exactly 0.
    u1 = subspaces.from_generators([np.array([1.0, 0.0])])
    u2 = subspaces.from_generators([np.array([0.0, 1.0])])
    return splitting.build(graphs.pair(graphs.preset("sequential", 2)), subspaces.product([u1, u2]))


def test_monotonicity_check_excluded_inputs():
    op, v0, _, _ = experiments.three_lines_example()
    f = splitting.spectral_report(op.T).fix_basis
    with pytest.raises(experiments.ExcludedInputError):
        experiments.monotonicity_check(op, 0.5, f[:, 0])
    zero_op = _zero_map()
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
    # The verdict, not the defects: the bounds of A decide it on the
    # three-lines map, so the check takes no spectral norm.
    op, v0, _, _ = experiments.three_lines_example()
    f = splitting.spectral_report(op.T).fix_basis
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
    assert splitting.spectral_report(op.T).iso_defect <= 1e-9
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


def test_each_catalogue_builder_returns_one_pair_per_n():
    # The pairs are frozen, so the caches keyed on a pair find them by identity.
    again = dict(experiments.pair_catalog())
    for name, make in experiments.pair_catalog():
        for n in (3, 6):
            gp = make(n)
            assert make(n) is gp and make(np.int64(n)) is gp and again[name](n) is gp
            assert gp.g.n == n


@pytest.mark.parametrize("n", [2, 3.0, True, "3"])
def test_a_catalogue_size_is_checked_before_the_cache(n):
    for _, make in experiments.pair_catalog():
        with pytest.raises(ValueError, match=f"^n must be an integer of at least 3, got {n!r}$"):
            make(n)


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
EMPTY, WIDE = np.zeros((0, 0)), np.ones((2, 3))


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
        (r"op of shape \(0, 0\)", lambda op, v0: experiments.converge(EMPTY, 1.0, v0[:0])),
        (r"op of shape \(0, 0\)", lambda op, v0: experiments.theta_sweep(EMPTY, [1.0], v0[:0])),
        (r"t of shape \(0, 0\)", lambda op, v0: experiments.symmetry_check(EMPTY, v0[:0], [0.5], 3)),
        (r"t of shape \(0, 0\)", lambda op, v0: experiments.convexity_check(EMPTY, v0[:0], 2, [0, 1])),
        (r"op of shape \(0, 0\)", lambda op, v0: experiments.monotonicity_check(EMPTY, 0.5, v0[:0])),
        (r"op of shape \(2, 3\)", lambda op, v0: experiments.converge(WIDE, 1.0, v0[:2])),
        (r"t of shape \(2, 3\)", lambda op, v0: experiments.symmetry_check(WIDE, v0[:2], [0.5], 3)),
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


# With one chain the checks and demos keep the bits of `_stepwise`; with
# the default chains their figures lie within the bound of the long double
# run (`_long_double`), carried through the check's own arithmetic.

@pytest.mark.parametrize("k_max", [1, 2, 31, 32, 33, 70])
def test_symmetry_check_keeps_the_loop_bits(block, k_max):
    # |max_i u_i - max_i v_i| <= max_i |u_i - v_i|, and a float subtraction
    # adds its rounding, at most eps/2 of the computed difference.
    thetas = [0.1, 0.5, 1.0, 1.3]
    both, m = thetas + [2.0 - theta for theta in thetas], len(thetas)
    for t, x in _subjects():
        got = experiments.symmetry_check(t, x, thetas, k_max)
        if block == "stepwise":
            norms = np.array([_stepwise(t, theta, x, 0.0, k_max) for theta in both])
            assert got.hex() == float(np.max(np.abs(norms[:m] - norms[m:]))).hex()
            continue
        ref, bound = _long_double(t, both, x, 0.0, k_max)
        gap = np.abs(ref[:m] - ref[m:])
        slack = bound[:m] + bound[m:]
        tol = slack + EPS / 2 * (gap + slack) + EPS_LONG * gap
        assert abs(got - float(np.max(gap))) <= float(np.max(tol)), (got, float(np.max(gap)))


@pytest.mark.parametrize("k", [0, 1, 2, 31, 32, 33])
def test_convexity_check_keeps_the_loop_bits(block, k):
    grid = [0.0, 0.25, 0.5, 1.0, 1.4, 2.0]  # theta = 0 (T_0 = I) and theta = 2
    mids = [0.5 * (lo + hi) for lo, hi in zip(grid, grid[1:])]
    shift = np.array([[0.0, 1.0], [0.0, 0.0]])
    for t, x in [*_subjects(), (shift, np.array([0.0, 1.0]))]:
        got = experiments.convexity_check(t, x, k, grid, require_normal=False)
        if block == "stepwise":
            f = np.array([_stepwise(t, theta, x, 0.0, k)[k] for theta in grid + mids])
            ends, mid = f[: len(grid)], f[len(grid) :]
            assert got.hex() == float(np.max(mid - 0.5 * (ends[:-1] + ends[1:]))).hex()
            continue
        ref, bound = _long_double(t, grid + mids, x, 0.0, k)
        f, mu = ref[:, k], bound[:, k]
        lo, hi, mid = f[: len(mids)], f[1 : len(grid)], f[len(grid) :]
        gaps = mid - 0.5 * (lo + hi)
        # The perturbation of each gap, and the rounding of the float gap:
        # fl(m - 0.5 fl(l + h)) is within eps (|m| + |l| + |h|) of m - (l + h) / 2.
        slack = mu[len(grid) :] + 0.5 * (mu[: len(mids)] + mu[1 : len(grid)])
        size = np.abs(mid) + np.abs(lo) + np.abs(hi) + 3 * np.max(mu)
        tol = slack + EPS * size + 2 * EPS_LONG * size
        assert abs(got - float(np.max(gaps))) <= float(np.max(tol)), (got, float(np.max(gaps)))


def _subjects():
    for seed in range(8):
        op = random_operator(seed)
        yield op.T, SplitMix64(5000 + seed).normals(op.size)
    yield _zero_map().T, np.array([0.6, -0.8])


@pytest.mark.usefixtures("block")
@pytest.mark.parametrize("k_max", [0, 1, 31, 32, 33, 10000])
def test_monotonicity_check_keeps_the_loop_verdict(k_max):
    cases = []
    for seed in range(8):
        op = random_operator(400 + seed)
        f = splitting.spectral_report(op.T).fix_basis
        rng = SplitMix64(7000 + seed)
        for theta in (0.3, 1.0, 1.7):
            x = rng.normals(op.size)  # with a fixed component, so a nonzero limit
            cases.append((op.T, theta, x if theta != 1.0 else x - f @ (f.T @ x)))
        if f.shape[1]:
            cases.append((op.T, 0.3, rng.normals(op.size) + 1e5 * f[:, 0]))
    # The zero map halves at theta = 1/2: the floor arrives at k = 40, inside
    # the block 32 .. 63, and the distances decrease to the end.
    cases.append((_zero_map().T, 0.5, np.array([0.6, -0.8])))
    # diag(1, 0) at theta = 1/2 from (3, 1): the norms flatten at round-off
    # near 3 long before the floor, but the distance 2^-k to the limit (3, 0)
    # halves exactly until it reaches the floor at k = 40.
    cases.append((HALVING, 0.5, HALVING_V0))
    # From (c, 2^40 * 1e-12) the distance is exactly 2^-k * 2^40 * 1e-12, so
    # it reaches the floor exactly at k = 40, whatever the fixed part c.
    cases += [(HALVING, 0.5, np.array([c, 2.0**40 * 1e-12])) for c in (1e-4, 2e5)]
    verdicts = set()
    for t, theta, x in cases:
        e0 = experiments._error(splitting.spectral_report(t).fix_basis, x)
        want = bool(np.all(np.diff(_stepwise(t, theta, e0, experiments._FLOOR, k_max)) < 0))
        try:
            got = experiments.monotonicity_check(t, theta, x, k_max)
        except experiments.ExcludedInputError:
            continue
        assert got is want, theta
        verdicts.add(got)
    assert True in verdicts


def test_monotonicity_check_accepts_a_start_with_a_large_fixed_part():
    # The run iterates the error, whose round-off scales with the error and
    # not with the fixed part of 1e5, so the distances reach the 1e-12 floor.
    verdicts = []
    for seed in range(8):
        op = random_operator(400 + seed)
        f = splitting.spectral_report(op.T).fix_basis
        x = SplitMix64(7000 + seed).normals(op.size)
        if f.shape[1]:
            verdicts.append(experiments.monotonicity_check(op.T, 0.3, x + 1e5 * f[:, 0], 10000))
    assert verdicts and all(verdicts)


@pytest.mark.usefixtures("block")
def test_monotonicity_check_accepts_the_three_lines_start():
    # The start has a fixed part: the norms approach ||limit|| = 10.06 and
    # stop changing at round-off long before the distances reach the floor,
    # so a check of the norms read False here.
    op, v0, _, limit = experiments.three_lines_example()
    assert float(np.linalg.norm(limit)) > 10.0
    for theta in (0.5, 1.0, 1.5):
        assert experiments.monotonicity_check(op, theta, v0)
        e0 = experiments._error(splitting.spectral_report(op.T).fix_basis, v0)
        assert np.all(np.diff(_stepwise(op.T, theta, e0, experiments._FLOOR, experiments.DEFAULT_K_MAX)) < 0)


def test_demos_keep_the_loop_bits(block):
    # The relaxed maps of the shift block have dyadic powers, so every
    # chain count computes the norms of the stepwise loop.
    shift = np.array([[0.0, 1.0], [0.0, 0.0]])
    x = np.array([0.0, 1.0])
    f0, f_half, f1 = (_stepwise(shift, theta, x, 0.0, 2)[2] for theta in (0.0, 0.5, 1.0))
    got = experiments._norms(shift, [0.0, 0.5, 1.0], x, 2)[:, 2].tolist()
    assert [v.hex() for v in got] == [v.hex() for v in (f0, f_half, f1)]
    lines = experiments.run_demo("not-normal").lines
    assert [line.measured for line in lines[:3]] == [f"{v:.12g}" for v in (f_half, f_half, 0.5 * (f0 + f1))]

    # The geometric demo iterates v0 less the closed-form limit, and the
    # error of the sweeps for its symmetry figure.
    op, v0, _, limit = experiments.three_lines_example()
    [(_, dists)] = experiments._relaxed_runs(op.T, [1.0], v0 - limit, 0.0, 5000)
    final_dist = float(dists[5000])
    e0 = experiments._error(splitting.spectral_report(op.T).fix_basis, v0)
    (_, a), (_, b) = experiments._relaxed_runs(op.T, [0.2, 1.8], e0, 0.0, 200)
    sym = float(np.max(np.abs(a - b)))
    if block == "stepwise":
        assert final_dist.hex() == _stepwise(op.T, 1.0, v0 - limit, 0.0, 5000)[5000].hex()
        lo, hi = (_stepwise(op.T, theta, e0, 0.0, 200) for theta in (0.2, 1.8))
        assert sym.hex() == max(abs(da - db) for da, db in zip(lo, hi)).hex()
    else:
        ref, bound = _long_double(op.T, [1.0], v0 - limit, 0.0, 5000)
        assert abs(final_dist - ref[0, 5000]) <= bound[0, 5000]
        refs, bounds = _long_double(op.T, [0.2, 1.8], e0, 0.0, 200)
        assert np.all(np.abs(np.stack([a, b]) - refs) <= bounds)
    lines = {line.label: line.measured for line in experiments.run_demo("geometric").lines}
    assert lines["distance to closed-form limit after 5000 steps"] == f"{final_dist:.12g}"
    assert lines["distance symmetry of 0.2 and 1.8 over 200 steps"] == f"{sym:.12g}"
