"""The norm budget: callers take only the norms and factors they read, with
the same expressions, so the same bits, as the full certificates."""

import dataclasses
import importlib.util
import json
import math
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


def test_a_near_identity_report_takes_only_its_defects(norm_calls):
    report = splitting.spectral_report(np.eye(4) + 1e-13 * np.ones((4, 4)))
    assert report.fix_dim == 4
    # 2 ||T - I||_F is at most RANK_TOL, both defects are at most DEFECT_TOL
    # and every eigenvalue lies within EIGENVALUE_ONE_TOL of 1: the bounds
    # decide the identity test, and only the two defects take norms.
    assert len(norm_calls) == 2


def _workloads():
    spec = importlib.util.spec_from_file_location("budget_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def test_every_certify_report_takes_two_norms(norm_calls):
    """The benchmark's seed-1 certify configs: each report takes its two
    defects, and no bound leaves the verdicts or the at-one band to ||T||."""
    ops = _workloads().certify_ops(1)
    assert ops
    for op in ops:
        config = cli.load_config(op.config)
        t = splitting.build(config.graph_pair, config.spaces).T
        before = len(norm_calls)
        splitting.spectral_report(t)
        assert len(norm_calls) - before == 2, op.config


def test_every_tune_sweep_takes_no_norm(norm_calls, tmp_path):
    """The benchmark's seed-1 tune sweeps: the bounds decide every iso
    verdict, identity test and band, so no sweep takes a spectral norm."""
    ops = _workloads().tune_ops(1)
    assert ops
    config_path, out_path = tmp_path / "config.json", tmp_path / "out.csv"
    for op in ops:
        config_path.write_text(json.dumps(op.config))
        assert cli.main(op.argv(str(config_path), str(out_path))) == 0
        assert norm_calls == [], op.config


def test_a_report_forms_no_basis_and_a_sweep_forms_one(monkeypatch, tmp_path, capsys):
    calls = []

    def counting(name, fn):
        def wrapped(*args):
            calls.append(name)
            return fn(*args)

        return wrapped

    monkeypatch.setattr(matlin, "null_space", counting("null_space", matlin.null_space))
    monkeypatch.setattr(matlin, "nullity", counting("nullity", matlin.nullity))
    fix_basis = counting("fix_basis", splitting.fix_basis)
    monkeypatch.setattr(splitting, "fix_basis", fix_basis)
    config = {
        "graph": {"preset": "ring", "n": 4},
        "ambient": 3,
        "spaces": [{"kind": "random", "dim": 2, "seed": k} for k in range(4)],
        "thetas": [0.5, 1.0, 1.5],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    # analyze reads fix_dim off the pivoted R of T - I: no basis is formed.
    assert cli.main(["analyze", "--config", str(path)]) == 0
    assert calls == ["nullity"]
    calls.clear()
    # A sweep factors T - I once: it forms the fixed basis of T, for every
    # theta, and reads its fix_dim off that basis.
    assert cli.main(["sweep", "--config", str(path)]) == 0
    assert calls == ["fix_basis", "null_space"]
    capsys.readouterr()


@SETTINGS
@given(configurations(), st.sampled_from(ETAS))
def test_a_sweep_analysis_has_the_bits_of_a_report(config, eta):
    t = (1.0 + eta) * splitting.build(*config).T
    analysis = splitting.sweep_analysis(t)
    report = splitting.spectral_report(t)

    def bits(eigs):
        return [(lam.real.hex(), lam.imag.hex()) for lam in eigs]

    assert np.array_equal(analysis.fix_basis, splitting.fix_basis(t))
    assert analysis.fix_basis.shape[1] == report.fix_dim
    assert analysis.is_iso_averaged is report.is_iso_averaged
    assert bits(analysis.eigenvalues_off_one) == bits(report.eigenvalues_off_one)
    assert analysis.rho1.hex() == report.rho1.hex()


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
    bounded_until = identity_until = screened_until = 0.0
    for delta in np.geomspace(1e-12, 1e-7, 120).tolist():
        t = np.eye(n) + delta * e
        basis = splitting.fix_basis(t)
        assert np.array_equal(basis, _unscreened_fix_basis(t))
        if basis.shape[1] == n:
            identity_until = delta
        # The band of `_within`: 2 ||T - I||_F at most RANK_TOL is the
        # identity, and ||T - I||_F / (2 sqrt(N)) above RANK_TOL (1 + 2 ||T||_F)
        # is not, with no spectral norm; only in between are norms taken.
        frobenius = float(np.linalg.norm(t - np.eye(n)))
        if 2.0 * frobenius <= matlin.RANK_TOL:
            bounded_until = delta
        ceiling = matlin.RANK_TOL * (1.0 + 2.0 * float(np.linalg.norm(t)))
        if frobenius / (2.0 * math.sqrt(n)) <= ceiling:
            screened_until = delta
    # The sweep passes the upper bound's edge, the identity test's edge inside
    # the band, then the band's edge.
    assert 1e-12 < bounded_until < identity_until < screened_until < 1e-7


def _assert_exact_norm_verdicts(t):
    """The verdicts of a report are those of the rule with the exact ||T||,
    its eigenvalues at 1 are the fix_dim nearest 1, each within the band of
    the exact ||T||, and rho1 is the largest modulus of the others."""
    report = splitting.spectral_report(t)
    nrm = matlin.operator_norm(t)
    assert report.is_normal is _exact_within(
        report.normality_defect, splitting.DEFECT_TOL, nrm, squared=True
    )
    assert report.is_iso_averaged is _exact_within(
        report.iso_defect, splitting.DEFECT_TOL, nrm, squared=True
    )
    eigs = report.eigenvalues
    assert report.fix_dim == splitting.fix_basis(t).shape[1]
    nearest = sorted(range(len(eigs)), key=lambda i: abs(eigs[i] - 1.0))[: report.fix_dim]
    assert all(
        _exact_within(abs(eigs[i] - 1.0), splitting.EIGENVALUE_ONE_TOL, nrm, squared=False)
        for i in nearest
    )
    off_one = tuple(lam for i, lam in enumerate(eigs) if i not in nearest)
    assert report.eigenvalues_off_one == off_one
    assert report.rho1.hex() == max((abs(lam) for lam in off_one), default=0.0).hex()
    return report


@SETTINGS
@given(configurations(), st.sampled_from(ETAS))
def test_bounded_rule_equals_the_exact_norm_rule(config, eta):
    _assert_exact_norm_verdicts((1.0 + eta) * splitting.build(*config).T)


@SETTINGS
@given(configurations())
def test_built_reports_keep_the_band_rule(config):
    # On built operators the fix_dim eigenvalues nearest 1 are exactly those
    # within the band, so the off-one set and rho1 are the band rule's.
    t = splitting.build(*config).T
    report = _assert_exact_norm_verdicts(t)
    nrm = matlin.operator_norm(t)
    band = tuple(
        lam
        for lam in report.eigenvalues
        if not _exact_within(abs(lam - 1.0), splitting.EIGENVALUE_ONE_TOL, nrm, squared=False)
    )
    assert report.eigenvalues_off_one == band
    assert report.rho1.hex() == max((abs(lam) for lam in band), default=0.0).hex()


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


# (T, is the identity, norms) for each branch of the identity test of
# `fix_basis`. T = I + delta u u^T with |u| = 1 and N = 4, so ||T - I||_2 =
# ||T - I||_F = delta, ||T||_F is about 2 and ||T||_2 about 1. The upper bound
# 2 delta <= RANK_TOL decides "identity", and the lower bound
# delta / 4 > RANK_TOL (1 + 2 ||T||_F), about 5e-10, decides "not". In between
# ||T - I||_2 is taken, and ||T||_2 only for delta in (RANK_TOL, 5e-10], with
# the exact edge at about 2e-10.
def _rank_one(delta):
    return np.eye(4) + delta * np.full((4, 4), 0.25)


IDENTITY_CASES = {
    "upper bound, identity": (_rank_one(4e-11), True, 0),
    "window, ||T - I|| identity": (_rank_one(8e-11), True, 1),
    "window, ||T|| identity": (_rank_one(1.5e-10), True, 2),
    "window, ||T|| not identity": (_rank_one(3e-10), False, 2),
    "window, ||T - I|| not identity": (_rank_one(1e-9), False, 1),
    "lower bound, not identity": (_rank_one(3e-9), False, 0),
}


@pytest.mark.parametrize("case", IDENTITY_CASES)
def test_each_branch_of_the_identity_test(norm_calls, case):
    t, identity, norms = IDENTITY_CASES[case]
    basis = splitting.fix_basis(t)
    assert len(norm_calls) == norms
    assert (basis.shape[1] == 4) is identity
    assert np.array_equal(basis, _unscreened_fix_basis(t))


def _jordan(r):
    """[[1, 1], [r^2, 1]] + [1/2]: eigenvalues 1 +- r and 1/2, ||T|| about
    1.618 and ||T||_F about 1.803, so the band's window is (1e-7, 4.606e-7]
    and its exact edge about 2.618e-7. T - I has rank 2 at RANK_TOL for every
    r here, so fix_dim is 1: a defective 1, split by r."""
    return np.array([[1.0, 1.0, 0.0], [r * r, 1.0, 0.0], [0.0, 0.0, 0.5]])


# (T, fix_dim or None for a self-check failure, extra norms): the band tests
# only the fix_dim eigenvalues nearest 1, so a map with nothing fixed takes no
# norm for it, and an eigenvalue near 1 that the rank does not fix is off 1.
BAND_CASES = {
    "nothing fixed": (np.diag([1.0 + 5e-8, 0.5]), 0, 0),
    "at most EIGENVALUE_ONE_TOL": (_jordan(5e-8), 1, 0),
    "window, at one": (_jordan(2e-7), 1, 1),
    "window, off one": (_jordan(3e-7), None, 1),
    "above the window": (_jordan(1e-6), None, 0),
}


@pytest.mark.parametrize("case", BAND_CASES)
def test_each_branch_of_the_at_one_band(norm_calls, case):
    t, fix_dim, extra = BAND_CASES[case]
    if fix_dim is None:
        message = r"band at 1 \(0\) disagree with the fixed-subspace dimension \(1\)$"
        with pytest.raises(splitting.SelfCheckFailedError, match=message):
            splitting.spectral_report(t)
        assert len(norm_calls) == 2 + extra
        return
    report = splitting.spectral_report(t)
    assert len(norm_calls) == 2 + extra
    assert report.fix_dim == fix_dim
    # The eigenvalue above 1 is off 1 either way, so rho1 shows it (1 + 5e-8
    # when nothing is fixed).
    assert report.eigenvalues[-1] in report.eigenvalues_off_one
    assert report.rho1 == abs(report.eigenvalues[-1]) > 1.0
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


def test_a_verify_draw_takes_a_qr_only_for_a_proper_subspace_and_no_check(monkeypatch, capsys):
    qrs, checks, draws = [], [], []
    qr, check, draw = matlin.qr, subspaces.Subspace.__post_init__, subspaces.random_subspace

    def counting_qr(a, pivoting=False):
        qrs.append("factor" if pivoting else "draw")
        return qr(a, pivoting)

    def counting_check(self):
        checks.append(self)
        check(self)

    def recording_draw(ambient, dim, seed):
        draws.append((ambient, dim))
        return draw(ambient, dim, seed)

    monkeypatch.setattr(matlin, "qr", counting_qr)
    monkeypatch.setattr(subspaces.Subspace, "__post_init__", counting_check)
    monkeypatch.setattr(subspaces, "random_subspace", recording_draw)
    graphs._laplacian_factor.cache_clear()
    experiments._witness_search.cache_clear()
    splitting._lifts.cache_clear()
    assert cli.main(["verify", "--seed", "1", "--trials", "1"]) == 0
    assert "summary: 9/9" in capsys.readouterr().out
    # 29 draws: 11 of dim 0 and 10 of dim d take no QR; the 8 others take one
    # each. The 8 pivoted QRs factor the distinct subgraph Laplacians.
    assert len(draws) == 29
    assert sum(dim == 0 for _, dim in draws) == 11
    assert sum(dim == ambient for ambient, dim in draws) == 10
    assert qrs.count("draw") == sum(0 < dim < ambient for ambient, dim in draws) == 8
    assert qrs.count("factor") == 8
    # No draw, and no full or trivial factor of a witness, runs the check.
    assert checks == []
