"""The norm budget: callers take only the norms and factors they read, with
the same expressions, so the same bits, as the full certificates."""

import dataclasses
import importlib.util
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import eig_multiset_close, random_operator
from hypothesis import given
from hypothesis import strategies as st
from test_properties import SAME, SETTINGS, configurations

from graphsplit import cli, experiments, graphs, matlin, splitting, subspaces
from graphsplit._rng import SplitMix64

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture
def norm_calls(monkeypatch):
    calls = []
    original = matlin.operator_norm

    def counting(a):
        calls.append(np.shape(a))
        return original(a)

    monkeypatch.setattr(matlin, "operator_norm", counting)
    return calls


def _unscreened_fix_basis(t):
    """fix_basis without its Frobenius screen: the exact identity test always."""
    n = t.shape[0]
    delta = t - np.eye(n)
    if matlin.operator_norm(delta) <= matlin.RANK_TOL * (1.0 + matlin.operator_norm(t)):
        return np.eye(n)
    return matlin.null_space(delta)


# The classification rule with the exact ||T||, always taken: the oracle of
# the rule that bounds ||T|| and takes it only where the bounds cannot decide.

def _exact_within(x, tol, nrm, squared):
    return x <= tol * (1.0 + (nrm * nrm if squared else nrm))


# The iso defect and verdict of `certificates` with no screen, by the same
# expressions, so the same bits: the oracles of the screened defect and verdict.

def _iso_defect(t):
    t = np.asarray(t, dtype=float)
    return matlin.operator_norm(2.0 * (t.T @ t) - t - t.T)


def _iso_verdict(t):
    iso = _iso_defect(t)
    return iso, _exact_within(iso, splitting.DEFECT_TOL, matlin.operator_norm(t), squared=True)


def _assert_same_certificate(t):
    cert = splitting.certificates(t)
    iso, verdict = _iso_verdict(t)
    assert _iso_defect(t).hex() == cert.iso_defect.hex()
    assert iso.hex() == cert.iso_defect.hex()
    assert verdict is cert.is_iso_averaged
    return cert


# Scales c T with c = 1 + eta: for iso-averaged T the iso defect of c T is
# about 2 eta ||T||^2, which crosses DEFECT_TOL and then the threshold.
ETAS = [0.0, *np.geomspace(1e-11, 1e-6, 51).tolist()]


@pytest.mark.parametrize("seed", range(6))
def test_report_takes_two_norms(norm_calls, seed):
    splitting.spectral_report(random_operator(seed).T)
    assert len(norm_calls) == 2


def test_a_near_identity_report_takes_the_exact_identity_test(norm_calls):
    report = splitting.spectral_report(np.eye(4) + 1e-13 * np.ones((4, 4)))
    assert report.fix_dim == 4
    # Both defects are at most DEFECT_TOL and every eigenvalue within
    # EIGENVALUE_ONE_TOL of 1: only `fix_basis`'s identity test takes norms.
    assert len(norm_calls) == 4


def test_every_certify_report_takes_two_norms(norm_calls):
    """The benchmark's seed-1 certify configs: each report takes its two
    defects, and no bound leaves the verdicts or the at-one band to ||T||."""
    spec = importlib.util.spec_from_file_location("budget_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    ops = workloads.certify_ops(1)
    assert ops
    for op in ops:
        config = cli.load_config(op.config)
        t = splitting.build(config.graph_pair, config.spaces).T
        before = len(norm_calls)
        splitting.spectral_report(t)
        assert len(norm_calls) - before == 2, op.config


def test_an_equal_graph_trial_and_a_non_witness_node_take_no_norm(norm_calls):
    experiments._witness_search.cache_clear()
    records = experiments.graph_equality_trials(seed=3, trials=4)
    same = [r for r in records if r.same]
    unequal = [r for r in records if not r.same]
    assert all(r.consistent for r in records)
    # Every equal-graph trial is decided by its Frobenius screen ...
    assert all(r.defect <= splitting.DEFECT_TOL / 2 for r in same)
    # ... and every search finds its witness, whose printed defect takes one
    # norm, once per distinct search: a repeated (pair, n, d) takes none.
    assert all(r.witness_index for r in unequal)
    assert len(norm_calls) == len({(r.pair_name, r.n, r.d) for r in unequal})


def test_verdict_takes_the_norm_of_t_only_above_defect_tol(norm_calls):
    t0 = random_operator(2).T
    taken = []
    for eta in ETAS:
        t = (1.0 + eta) * t0
        before = len(norm_calls)
        defect, _ = splitting.screened_iso_verdict(t)
        taken.append(len(norm_calls) - before)
        bound = float(np.linalg.norm(2.0 * (t.T @ t) - t - t.T))
        upper = 2.0 * float(np.linalg.norm(t))
        window = splitting.DEFECT_TOL < defect <= splitting.DEFECT_TOL * (1.0 + upper * upper)
        # None below the screen, the defect's above it, and ||T|| only for a
        # defect above DEFECT_TOL that 2 ||T||_F cannot classify.
        assert taken[-1] == (2.0 * bound > splitting.DEFECT_TOL) + window
    assert set(taken) == {0, 1, 2}


@SETTINGS
@given(configurations(), st.sampled_from(ETAS))
def test_narrow_certificates_equal_the_full_ones(config, eta):
    _assert_same_certificate((1.0 + eta) * splitting.build(*config).T)


def test_scaled_maps_run_every_branch_of_the_verdict():
    branches = set()
    for seed in range(4):
        t = random_operator(seed).T
        for eta in ETAS:
            cert = _assert_same_certificate((1.0 + eta) * t)
            if cert.iso_defect <= splitting.DEFECT_TOL:
                branches.add("at most DEFECT_TOL")
            else:
                branches.add("negligible" if cert.is_iso_averaged else "not negligible")
    assert branches == {"at most DEFECT_TOL", "negligible", "not negligible"}


@SETTINGS
@given(configurations(catalog=SAME), st.integers(0, 2**32 - 1))
def test_screened_fix_basis_equals_the_unscreened_rule(config, seed):
    t = splitting.build(*config).T
    rng = np.random.default_rng(seed)
    for case in (t, rng.standard_normal(t.shape), np.eye(t.shape[0]) - t):
        assert np.array_equal(splitting.fix_basis(case), _unscreened_fix_basis(case))


@pytest.mark.parametrize("kind", ["rank one", "orthogonal", "random"])
def test_fix_basis_across_the_band_edge(kind):
    n = 12
    rng = np.random.default_rng(5)
    if kind == "rank one":
        e = np.outer(rng.standard_normal(n), rng.standard_normal(n))
    elif kind == "orthogonal":
        e = np.linalg.qr(rng.standard_normal((n, n)))[0]
    else:
        e = rng.standard_normal((n, n))
    e /= np.linalg.norm(e, 2)
    identity_until = screened_until = 0.0
    for delta in np.geomspace(1e-12, 1e-7, 120).tolist():
        t = np.eye(n) + delta * e
        basis = splitting.fix_basis(t)
        assert np.array_equal(basis, _unscreened_fix_basis(t))
        if basis.shape[1] == n:
            identity_until = delta
        band = 2.0 * math.sqrt(n) * matlin.RANK_TOL * (1.0 + np.linalg.norm(t))
        if np.linalg.norm(t - np.eye(n)) <= band:
            screened_until = delta
    # The sweep passes the identity test's edge inside the band, then the band's edge.
    assert 1e-12 < identity_until < screened_until < 1e-7


def _assert_exact_norm_verdicts(t):
    """The verdicts, eigenvalues off 1 and rho1 of a report are those of the
    rule with the exact ||T||."""
    report = splitting.spectral_report(t)
    nrm = matlin.operator_norm(t)
    off_one = tuple(
        lam
        for lam in report.eigenvalues
        if not _exact_within(abs(lam - 1.0), splitting.EIGENVALUE_ONE_TOL, nrm, squared=False)
    )
    assert report.is_normal is _exact_within(
        report.normality_defect, splitting.DEFECT_TOL, nrm, squared=True
    )
    assert report.is_iso_averaged is _exact_within(
        report.iso_defect, splitting.DEFECT_TOL, nrm, squared=True
    )
    assert report.eigenvalues_off_one == off_one
    assert report.rho1.hex() == max((abs(lam) for lam in off_one), default=0.0).hex()


@pytest.mark.filterwarnings("ignore:eigenvalues at 1:RuntimeWarning")
@SETTINGS
@given(configurations(), st.sampled_from(ETAS))
def test_bounded_rule_equals_the_exact_norm_rule(config, eta):
    _assert_exact_norm_verdicts((1.0 + eta) * splitting.build(*config).T)


# Hand-built maps for each branch of the rule, with the extra norms each
# takes: P = diag(1, 0) scaled by c has iso defect 2 c (c - 1), and ||T||_F = c,
# so the window of the verdict is (DEFECT_TOL, DEFECT_TOL (1 + 4 c^2)].
VERDICT_CASES = {
    "at most DEFECT_TOL": (np.diag([1.0, 0.0]), True, 0),
    "window, negligible": ((1.0 + 7.5e-10) * np.diag([1.0, 0.0]), True, 1),
    "window, not negligible": ((1.0 + 1.5e-9) * np.diag([1.0, 0.0]), False, 1),
    "above the window": (np.array([[0.0, 1.0], [0.0, 0.0]]), False, 0),
}


@pytest.mark.parametrize("case", VERDICT_CASES)
def test_each_branch_of_the_verdict(norm_calls, case):
    t, iso_averaged, extra = VERDICT_CASES[case]
    cert = splitting.certificates(t)
    assert cert.is_iso_averaged is iso_averaged
    assert len(norm_calls) == 2 + extra
    iso, verdict = _iso_verdict(t)
    assert iso.hex() == cert.iso_defect.hex() and verdict is iso_averaged
    assert cert.is_normal is _exact_within(
        cert.normality_defect, splitting.DEFECT_TOL, matlin.operator_norm(t), squared=True
    )


# diag(1 + e, 1/2) has ||T||_F about 1.118 and ||T|| = 1 + e: the band's window
# is (1e-7, 3.236e-7], and its exact edge 1e-7 (2 + e).
BAND_CASES = {
    "at most EIGENVALUE_ONE_TOL": (5e-8, True, 0),
    "window, at one": (2e-7, True, 1),
    "window, off one": (2.5e-7, False, 1),
    "above the window": (1e-6, False, 0),
}


@pytest.mark.parametrize("case", BAND_CASES)
def test_each_branch_of_the_at_one_band(norm_calls, case):
    e, at_one, extra = BAND_CASES[case]
    t = np.diag([1.0 + e, 0.5])
    with warnings.catch_warnings():
        # fix_basis ranks T - I at RANK_TOL, finer than the band.
        warnings.simplefilter("ignore", RuntimeWarning)
        report = splitting.spectral_report(t)
        assert len(norm_calls) == 2 + extra
        assert (report.eigenvalues[-1] not in report.eigenvalues_off_one) is at_one
        _assert_exact_norm_verdicts(t)


@pytest.mark.parametrize("scale", [1e-160, 1e-170])
def test_a_tiny_map_keeps_the_exact_norm_verdicts(scale):
    # np.linalg.norm squares the entries and loses them to underflow, while
    # operator_norm scales first: the bound 2 ||T||_F can fall below ||T||,
    # where 1 + ||T|| rounds to 1 either way.
    t = scale * random_operator(1).T
    assert abs(matlin.operator_norm(t) - scale) <= 1e-12 * scale
    frobenius = float(np.linalg.norm(t / scale)) * scale
    assert abs(float(np.linalg.norm(t)) - frobenius) > 1e-6 * frobenius
    _assert_exact_norm_verdicts(t)


@pytest.mark.parametrize("seed", range(4))
def test_screened_verdict_equals_the_exact_one(seed):
    t0 = random_operator(seed).T
    sides = set()
    for eta in ETAS:
        t = (1.0 + eta) * t0
        iso, verdict = _iso_verdict(t)
        defect, screened_verdict = splitting.screened_iso_verdict(t)
        assert screened_verdict is verdict
        bound = float(np.linalg.norm(2.0 * (t.T @ t) - t - t.T))
        if 2.0 * bound <= splitting.DEFECT_TOL:
            sides.add("screened")
            assert defect.hex() == bound.hex()
            assert iso <= 2.0 * bound
        else:
            sides.add("exact")
            assert defect.hex() == iso.hex()
    assert sides == {"screened", "exact"}


@SETTINGS
@given(configurations(), st.sampled_from(ETAS))
def test_screened_defect_is_exact_above_its_screen(config, eta):
    t = (1.0 + eta) * splitting.build(*config).T
    iso = _iso_defect(t)
    bound = float(np.linalg.norm(2.0 * (t.T @ t) - t - t.T))
    for tol in (splitting.DEFECT_TOL, experiments.WITNESS_TOL):
        defect = splitting.screened_iso_defect(t, tol)
        if 2.0 * bound <= tol:
            assert defect.hex() == bound.hex() and iso <= 2.0 * bound
        else:
            assert defect.hex() == iso.hex()
    assert splitting.screened_iso_verdict(t)[1] is _iso_verdict(t)[1]


# The trials and the witness search as they were before the Frobenius screens:
# an exact iso defect for every trial and every node.

def _unscreened_witness_search(graph_pair, d):
    n = graph_pair.g.n
    worst = 0.0
    for i in range(1, n + 1):
        op = splitting.build(graph_pair, subspaces.coordinate_product(n, i, d))
        iso = _iso_defect(op.T)
        if iso > experiments.WITNESS_TOL:
            return experiments.WitnessResult(True, i, iso)
        worst = max(worst, iso)
    return experiments.WitnessResult(False, None, worst)


def _unscreened_trials(seed, trials):
    rng = SplitMix64(seed)
    records = []
    for name, make in experiments.pair_catalog():
        for _ in range(trials):
            n = rng.randint(3, 6)
            d = rng.randint(1, 3)
            gp = make(n)
            if gp.same:
                factors = [
                    subspaces.random_subspace(d, rng.randint(0, d), rng.next_uint64())
                    for _ in range(n)
                ]
                op = splitting.build(gp, subspaces.product(factors))
                defect, consistent = _iso_verdict(op.T)
                records.append(experiments.TrialRecord(name, n, d, True, consistent, defect, None))
            else:
                res = _unscreened_witness_search(gp, d)
                records.append(
                    experiments.TrialRecord(name, n, d, False, res.found, res.defect, res.index)
                )
    return records


def _assert_same_defect(screened, exact, tol):
    """Exact above the screen at tol / 2, bit for bit; a bound below it."""
    if 2.0 * screened > tol:
        assert screened.hex() == exact.hex()
    else:
        assert exact <= 2.0 * screened


def test_screened_trials_equal_the_unscreened_ones():
    for seed in range(50):
        got = experiments.graph_equality_trials(seed, 3)
        want = _unscreened_trials(seed, 3)
        assert len(got) == len(want)
        for new, old in zip(got, want):
            assert (new.pair_name, new.n, new.d, new.same) == (old.pair_name, old.n, old.d, old.same)
            assert new.consistent is old.consistent
            assert new.witness_index == old.witness_index
            if new.same:
                _assert_same_defect(new.defect, old.defect, splitting.DEFECT_TOL)
            else:
                assert new.consistent and new.defect.hex() == old.defect.hex()


def test_screened_witness_search_equals_the_unscreened_one():
    for name, make in experiments.pair_catalog():
        for n in range(3, 8):
            for d in range(1, 4):
                gp = make(n)
                got = experiments.witness_search(gp, d)
                want = _unscreened_witness_search(gp, d)
                assert got.found is want.found is not gp.same, (name, n, d)
                assert got.index == want.index
                if got.found:
                    assert got.defect.hex() == want.defect.hex()
                else:
                    _assert_same_defect(got.defect, want.defect, experiments.WITNESS_TOL)


def test_witness_search_is_cached_and_frozen(norm_calls):
    experiments._witness_search.cache_clear()
    gp = graphs.pair(graphs.preset("ring", 5), graphs.preset("sequential", 5))
    result = experiments.witness_search(gp, 2)
    assert result.found and len(norm_calls) == 1
    # An equal pair of distinct objects and d as a keyword share the entry:
    # no second search.
    equal = graphs.pair(
        graphs.AlgorithmicGraph(5, gp.g.edges), graphs.AlgorithmicGraph(5, gp.gp.edges)
    )
    assert equal is not gp and equal.g is not gp.g
    assert experiments.witness_search(equal, d=2) is result
    assert experiments.witness_search(gp, 2) is result
    assert experiments.witness_search(gp, np.int64(2)) is result
    assert len(norm_calls) == 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.defect = 0.0
    want = _unscreened_witness_search(gp, 2)
    assert (result.found, result.index) == (want.found, want.index)
    assert result.defect.hex() == want.defect.hex()


def test_repeated_trials_search_once(norm_calls):
    experiments._witness_search.cache_clear()
    first = experiments.graph_equality_trials(seed=5, trials=3)
    taken = len(norm_calls)
    assert taken
    assert experiments.graph_equality_trials(seed=5, trials=3) == first
    assert len(norm_calls) == taken


def test_laplacian_factor_is_cached_and_read_only():
    g = graphs.preset("ring", 5)
    z = graphs.laplacian_factor(g)
    assert graphs.laplacian_factor(graphs.preset("ring", 5)) is z
    assert graphs.laplacian_factor(graphs.preset("sequential", 5)) is not z
    assert not z.flags.writeable
    with pytest.raises(ValueError):
        z[0, 0] = 1.0


def test_graph_matrices_are_cached_and_read_only():
    mats = graphs.matrices(graphs.preset("ring", 5))
    again = graphs.matrices(graphs.preset("ring", 5))
    assert all(a is b for a, b in zip(mats, again))
    assert graphs.matrices(graphs.preset("sequential", 5))[3] is not mats[3]
    assert not any(m.flags.writeable for m in mats)
    with pytest.raises(ValueError):
        mats[3][0, 0] = 1.0


def test_witness_search_factors_its_subgraph_once(monkeypatch):
    calls = []
    original = matlin.qr

    def counting(a, pivoting=False):
        calls.append(a.shape)
        return original(a, pivoting)

    monkeypatch.setattr(matlin, "qr", counting)
    graphs._laplacian_factor.cache_clear()
    experiments._witness_search.cache_clear()
    # G = G' has no witness, so the search builds once per node.
    result = experiments.witness_search(graphs.pair(graphs.preset("complete", 6)), 2)
    assert not result.found
    assert calls == [(15, 6)]


def test_cached_factor_still_rebases_and_yields_to_a_supplied_z():
    gp = graphs.pair(graphs.preset("ring", 4), graphs.preset("sequential", 4))
    spaces = subspaces.product([subspaces.random_subspace(2, 1, k) for k in range(4)])
    op = splitting.build(gp, spaces)
    assert op.Z is graphs.laplacian_factor(gp.gp)
    c, s = math.cos(0.3), math.sin(0.3)
    o = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    turned = splitting.build(gp, spaces, z=op.Z @ o)
    assert turned.Z.flags.writeable
    assert np.array_equal(turned.Z, op.Z @ o)
    want = np.linalg.eigvals(op.T)
    assert eig_multiset_close(np.linalg.eigvals(turned.T), want, 1e-10)
    tree = splitting.build(gp, spaces, z=graphs.incidence(gp.gp))
    assert np.array_equal(tree.Z, graphs.incidence(gp.gp))
    assert eig_multiset_close(np.linalg.eigvals(tree.T), want, 1e-10)
