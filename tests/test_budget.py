"""The norm budget: a report computes only the fields that are read, each
once, with the same expressions, so the same bits, as a fully read report."""

import dataclasses
import json
import math

import numpy as np
import pytest
from conftest import (
    REPORT_FIELDS, defect_floor, eig_multiset_close, full_report, perfbench_module,
    random_operator,
)
from hypothesis import given
from hypothesis import strategies as st
from test_properties import SAME, SETTINGS, configurations

from graphsplit import cli, experiments, graphs, matlin, splitting, subspaces
from graphsplit._rng import SplitMix64


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


# The iso defect and verdict of a report with no screen, by the same
# expressions, so the same bits: the oracles of the screened defect and verdict.

def _iso_defect(t):
    t = np.asarray(t, dtype=float)
    return matlin.operator_norm(2.0 * (t.T @ t) - t - t.T)


def _iso_verdict(t):
    iso = _iso_defect(t)
    return iso, _exact_within(iso, splitting.DEFECT_TOL, matlin.operator_norm(t), squared=True)


def _under_floor(a, t):
    """Whether the Frobenius bound 2 ||A||_F of a defect matrix of T is at
    most the floor, where its report prints the defect as 0."""
    return 2.0 * float(np.linalg.norm(a)) <= defect_floor(t)


def _defect_norms(t):
    """The spectral norms that the two defects of T take: one for each
    defect matrix above the floor."""
    gram = t.T @ t
    return sum(not _under_floor(a, t) for a in (gram - t @ t.T, 2.0 * gram - t - t.T))


def _assert_same_certificate(t):
    # The iso defect is the unscreened one above the floor and 0 under it,
    # and the verdict is that of the unscreened defect, under the floor too.
    report = splitting.spectral_report(t)
    iso, verdict = _iso_verdict(t)
    if _under_floor(2.0 * (t.T @ t) - t - t.T, t):
        assert report.iso_defect == 0.0
    else:
        assert iso.hex() == report.iso_defect.hex()
    assert verdict is report.is_iso_averaged
    return report


# Scales c T with c = 1 + eta: for iso-averaged T the iso defect of c T is
# about 2 eta ||T||^2, which crosses DEFECT_TOL and then the threshold.
ETAS = [0.0, *np.geomspace(1e-11, 1e-6, 51).tolist()]


@pytest.mark.parametrize("seed", range(6))
def test_report_takes_two_norms(norm_calls, seed):
    # Both defects of a G = G' map lie under their floor and take no norm;
    # a strictly upper triangular part added makes both defects real.
    t = random_operator(seed).T
    full_report(t)
    assert norm_calls == []
    full_report(t + np.triu(np.ones_like(t), 1))
    assert len(norm_calls) == 2


def test_a_near_identity_report_takes_only_its_defects(norm_calls):
    report = full_report(np.eye(4) + 1e-13 * np.ones((4, 4)))
    assert report.fix_dim == 4
    # 2 ||T - I||_F is at most RANK_TOL, both defects are at most DEFECT_TOL
    # and every eigenvalue lies within EIGENVALUE_ONE_TOL of 1: the bounds
    # decide the identity test, and only the defects take norms. T is
    # symmetric, so its normality defect lies under the floor, and only its
    # iso defect, about 8e-13, takes one.
    assert report.normality_defect == 0.0 < report.iso_defect
    assert len(norm_calls) == 1


def test_every_certify_report_takes_two_norms(norm_calls):
    """The benchmark's seed-1 certify configs: each report takes the norms of
    its two defects, none when both lie under their floor, and no bound
    leaves the verdicts or the at-one band to ||T||."""
    ops = perfbench_module("workloads").certify_ops(1)
    assert ops
    taken = []
    for op in ops:
        config = cli.load_config(op.config)
        t = splitting.build(config.graph_pair, config.spaces).T
        before = len(norm_calls)
        full_report(t)
        taken.append(len(norm_calls) - before)
        assert taken[-1] == _defect_norms(t), op.config
    # 76 of the 100 reports take no norm; no report has one defect under its
    # floor and the other above it.
    assert (taken.count(0), taken.count(2)) == (76, 24)


def test_every_tune_sweep_takes_no_norm(norm_calls, tmp_path):
    """The benchmark's seed-1 tune sweeps: the bounds decide every iso
    verdict, identity test and band, so no sweep takes a spectral norm."""
    ops = perfbench_module("workloads").tune_ops(1)
    assert ops
    config_path, out_path = tmp_path / "config.json", tmp_path / "out.csv"
    for op in ops:
        config_path.write_text(json.dumps(op.config))
        assert cli.main(op.argv(str(config_path), str(out_path))) == 0
        assert norm_calls == [], op.config


def test_a_report_and_a_sweep_each_form_one_basis(monkeypatch, tmp_path, capsys):
    calls = []
    original = matlin.null_space

    def counting(a):
        calls.append(np.shape(a))
        return original(a)

    monkeypatch.setattr(matlin, "null_space", counting)
    config = {
        "graph": {"preset": "ring", "n": 4},
        "ambient": 3,
        "spaces": [{"kind": "random", "dim": 2, "seed": k} for k in range(4)],
        "thetas": [0.5, 1.0, 1.5],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    # A report and a sweep share one analysis of T: each factors T - I once,
    # a report for its fix_dim, a sweep for the limit point of every theta.
    for command in ("analyze", "sweep"):
        calls.clear()
        assert cli.main([command, "--config", str(path)]) == 0
        assert calls == [(9, 9)], command
    capsys.readouterr()


def _field_bits(report, field):
    """A field of a report as bits: hex floats, the bytes of the basis."""
    value = getattr(report, field)
    if field in ("eigenvalues", "eigenvalues_off_one"):
        return [(lam.real.hex(), lam.imag.hex()) for lam in value]
    if field == "fix_basis":
        return value.shape, value.tobytes()
    if field in ("normality_defect", "iso_defect", "rho1"):
        return float(value).hex()
    return type(value), value


def _assert_bits_of_a_full_report(report, t):
    full = full_report(t)
    for field in REPORT_FIELDS:
        assert _field_bits(report, field) == _field_bits(full, field), field


# A caller reads only the fields it needs, in its own order (a sweep its
# basis and rho1, a G = G' trial its iso verdict): what it reads has the bits
# of a fully read report.

@SETTINGS
@given(configurations(), st.sampled_from(ETAS), st.permutations(REPORT_FIELDS))
def test_fields_read_in_any_order_have_the_bits_of_a_full_report(config, eta, order):
    t = (1.0 + eta) * splitting.build(*config).T
    report = splitting.spectral_report(t)
    for field in order:
        getattr(report, field)
    _assert_bits_of_a_full_report(report, t)


@pytest.mark.parametrize("field", REPORT_FIELDS)
def test_a_field_read_first_has_the_bits_of_a_full_report(field):
    ts = [(1.0 + eta) * random_operator(seed).T for seed in range(4) for eta in ETAS[::10]]
    for k, (_, make) in enumerate(experiments.pair_catalog()):
        spaces = subspaces.product(
            subspaces.random_subspace(3, 1 + (k + i) % 3, 50 * k + i) for i in range(4)
        )
        ts.append(splitting.build(make(4), spaces).T)
    for t in ts:
        report = splitting.spectral_report(t)
        getattr(report, field)
        _assert_bits_of_a_full_report(report, t)


def test_an_equal_graph_trial_and_a_non_witness_node_take_no_norm(norm_calls):
    experiments._witness_search.cache_clear()
    records = experiments.graph_equality_trials(seed=3, trials=4)
    unequal = [r for r in records if not r.same]
    assert all(r.consistent for r in records)
    # Every equal-graph trial is decided by the bounds of its A, and every
    # search finds its witness, whose printed defect takes one norm, once per
    # distinct search: a repeated (pair, n, d) takes none.
    assert all(r.witness_index for r in unequal)
    assert len(norm_calls) == len({(r.pair_name, r.n, r.d) for r in unequal})


def test_a_trial_run_pays_once_for_each_structure(monkeypatch):
    # A build takes no norm, each graph computes its degree list once, and
    # each catalogue pair is built once. The caches are emptied first, so
    # every count starts from nothing.
    for cache in (graphs._preset, experiments._family_pair, experiments._witness_search,
                  splitting._lifts):
        cache.cache_clear()
    degree_list = graphs.AlgorithmicGraph.degree_list
    build, pair, norm, degrees = splitting.build, graphs.pair, np.linalg.norm, degree_list.func
    inside, norms, pairs, counted = [False], [], [], []

    def building(*args):
        inside[0] = True
        try:
            return build(*args)
        finally:
            inside[0] = False

    def norming(*args, **kwargs):
        norms.append(inside[0])
        return norm(*args, **kwargs)

    def pairing(*args):
        pairs.append(pair(*args))
        return pairs[-1]

    def counting(graph):
        counted.append(graph)
        return degrees(graph)

    monkeypatch.setattr(splitting, "build", building)
    monkeypatch.setattr(np.linalg, "norm", norming)
    monkeypatch.setattr(graphs, "pair", pairing)
    monkeypatch.setattr(degree_list, "func", counting)
    records = experiments.graph_equality_trials(seed=3, trials=4)
    assert all(r.consistent for r in records)
    assert True not in norms
    assert len(pairs) == len({(r.pair_name, r.n) for r in records})
    assert len(counted) == len(set(map(id, counted)))
    assert set(map(id, counted)) == {id(p.g) for p in pairs}


def _iso_bounds(t):
    """Which bound of A = 2 T^T T - T - T^T decides the iso verdict of T,
    "upper" (2 ||A||_F <= DEFECT_TOL) or "lower" (||A||_F / (2 sqrt(N)) above
    the ceiling DEFECT_TOL (1 + (2 ||T||_F)^2)), or None; and the ceiling."""
    frobenius = float(np.linalg.norm(2.0 * (t.T @ t) - t - t.T))
    upper = 2.0 * float(np.linalg.norm(t))
    ceiling = splitting.DEFECT_TOL * (1.0 + upper * upper)
    if 2.0 * frobenius <= splitting.DEFECT_TOL:
        return "upper", ceiling
    if frobenius / (2.0 * math.sqrt(t.shape[0])) > ceiling:
        return "lower", ceiling
    return None, ceiling


def test_verdict_takes_the_norm_of_t_only_above_defect_tol(norm_calls):
    t0 = random_operator(2).T
    taken, decided = [], set()
    for eta in ETAS:
        t = (1.0 + eta) * t0
        before = len(norm_calls)
        splitting.spectral_report(t).is_iso_averaged
        taken.append(len(norm_calls) - before)
        bound, ceiling = _iso_bounds(t)
        decided.add(bound)
        # None where a bound of A decides, ||A|| in between, and ||T|| only
        # for a defect above DEFECT_TOL that 2 ||T||_F cannot classify.
        window = bound is None and splitting.DEFECT_TOL < _iso_defect(t) <= ceiling
        assert taken[-1] == (bound is None) + window
    assert set(taken) == {0, 1, 2}
    assert decided == {"upper", "lower", None}


@SETTINGS
@given(configurations(), st.sampled_from(ETAS))
def test_narrow_certificates_equal_the_full_ones(config, eta):
    _assert_same_certificate((1.0 + eta) * splitting.build(*config).T)


def test_scaled_maps_run_every_branch_of_the_verdict():
    branches = set()
    for seed in range(4):
        t = random_operator(seed).T
        for eta in ETAS:
            report = _assert_same_certificate((1.0 + eta) * t)
            if report.iso_defect <= splitting.DEFECT_TOL:
                branches.add("at most DEFECT_TOL")
            else:
                branches.add("negligible" if report.is_iso_averaged else "not negligible")
    assert branches == {"at most DEFECT_TOL", "negligible", "not negligible"}


@SETTINGS
@given(configurations(catalog=SAME), st.integers(0, 2**32 - 1))
def test_screened_fix_basis_equals_the_unscreened_rule(config, seed):
    t = splitting.build(*config).T
    rng = np.random.default_rng(seed)
    for case in (t, rng.standard_normal(t.shape), np.eye(t.shape[0]) - t):
        basis = splitting.spectral_report(case).fix_basis
        assert np.array_equal(basis, _unscreened_fix_basis(case))


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
        basis = splitting.spectral_report(t).fix_basis
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
    the exact ||T||, and rho1 is the largest modulus of the others. The
    defects of the rule are unscreened: a verdict never reads a defect
    printed as 0 under its floor."""
    report = splitting.spectral_report(t)
    nrm = matlin.operator_norm(t)
    assert report.is_normal is _exact_within(
        matlin.operator_norm(t.T @ t - t @ t.T), splitting.DEFECT_TOL, nrm, squared=True
    )
    assert report.is_iso_averaged is _exact_within(
        _iso_defect(t), splitting.DEFECT_TOL, nrm, squared=True
    )
    eigs = report.eigenvalues
    assert report.fix_dim == _unscreened_fix_basis(t).shape[1]
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


# Hand-built maps for each branch of the rule, with the norms of their
# defects above the floor and the extra norms each verdict takes:
# P = diag(1, 0) scaled by c has iso defect 2 c (c - 1), and ||T||_F = c, so
# the window of the verdict is (DEFECT_TOL, DEFECT_TOL (1 + 4 c^2)]. A
# diagonal map is normal, with a normality defect of exactly 0.
VERDICT_CASES = {
    "at most DEFECT_TOL": (np.diag([1.0, 0.0]), True, 0, 0),
    "window, negligible": ((1.0 + 7.5e-10) * np.diag([1.0, 0.0]), True, 1, 1),
    "window, not negligible": ((1.0 + 1.5e-9) * np.diag([1.0, 0.0]), False, 1, 1),
    "above the window": (np.array([[0.0, 1.0], [0.0, 0.0]]), False, 2, 0),
}


@pytest.mark.parametrize("case", VERDICT_CASES)
def test_each_branch_of_the_verdict(norm_calls, case):
    t, iso_averaged, defects, extra = VERDICT_CASES[case]
    report = full_report(t)
    assert report.is_iso_averaged is iso_averaged
    assert len(norm_calls) == defects + extra
    iso, verdict = _iso_verdict(t)
    assert iso.hex() == report.iso_defect.hex() and verdict is iso_averaged
    assert report.is_normal is _exact_within(
        matlin.operator_norm(t.T @ t - t @ t.T), splitting.DEFECT_TOL, matlin.operator_norm(t),
        squared=True,
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
    basis = splitting.spectral_report(t).fix_basis
    assert len(norm_calls) == norms
    assert (basis.shape[1] == 4) is identity
    assert np.array_equal(basis, _unscreened_fix_basis(t))


def _jordan(r):
    """[[1, 1], [r^2, 1]] + [1/2]: eigenvalues 1 +- r and 1/2, ||T|| about
    1.618 and ||T||_F about 1.803, so the band's window is (1e-7, 4.606e-7]
    and its exact edge about 2.618e-7. T - I has rank 2 at RANK_TOL for every
    r here, so fix_dim is 1: a defective 1, split by r."""
    return np.array([[1.0, 1.0, 0.0], [r * r, 1.0, 0.0], [0.0, 0.0, 0.5]])


# (T, fix_dim or None for a self-check failure, norms): the band tests only
# the fix_dim eigenvalues nearest 1, so a map with nothing fixed takes no
# norm for it, and an eigenvalue near 1 that the rank does not fix is off 1.
# The diagonal map takes one norm, for its iso defect; each _jordan map two,
# for its defects, and one more where the band's window takes ||T||.
BAND_CASES = {
    "nothing fixed": (np.diag([1.0 + 5e-8, 0.5]), 0, 1),
    "at most EIGENVALUE_ONE_TOL": (_jordan(5e-8), 1, 2),
    "window, at one": (_jordan(2e-7), 1, 3),
    "window, off one": (_jordan(3e-7), None, 3),
    "above the window": (_jordan(1e-6), None, 2),
}


@pytest.mark.parametrize("case", BAND_CASES)
def test_each_branch_of_the_at_one_band(norm_calls, case):
    t, fix_dim, norms = BAND_CASES[case]
    if fix_dim is None:
        message = r"band at 1 \(0\) disagree with the fixed-subspace dimension \(1\)$"
        with pytest.raises(splitting.SelfCheckFailedError, match=message):
            full_report(t)
        assert len(norm_calls) == norms
        return
    report = full_report(t)
    assert len(norm_calls) == norms
    assert report.fix_dim == fix_dim
    # The eigenvalue above 1 is off 1 either way, so rho1 shows it (1 + 5e-8
    # when nothing is fixed).
    assert report.eigenvalues[-1] in report.eigenvalues_off_one
    assert report.rho1 == abs(report.eigenvalues[-1]) > 1.0
    _assert_exact_norm_verdicts(t)


def test_a_sweep_stops_at_a_failed_self_check_before_its_first_step(monkeypatch):
    runs = []
    monkeypatch.setattr(experiments, "_relaxed_runs", lambda *args: runs.append(args))
    message = r"band at 1 \(0\) disagree with the fixed-subspace dimension \(1\)$"
    with pytest.raises(splitting.SelfCheckFailedError, match=message):
        experiments.theta_sweep(_jordan(3e-7), [0.5, 1.0], np.ones(3))
    assert runs == []


@pytest.fixture
def kernel_calls(monkeypatch):
    """The calls of the two kernels behind the spectrum and the fixed basis."""
    calls = []

    def counting(name, original):
        def kernel(a):
            calls.append(name)
            return original(a)

        return kernel

    for name in ("general_eigenvalues", "null_space"):
        monkeypatch.setattr(matlin, name, counting(name, getattr(matlin, name)))
    return calls


@pytest.mark.parametrize("seed", range(4))
def test_a_report_read_twice_computes_each_quantity_once(norm_calls, kernel_calls, seed):
    t = random_operator(seed).T
    full_report(t)
    one_read = len(norm_calls)
    norm_calls.clear()
    kernel_calls.clear()
    report = full_report(t)
    first = {field: getattr(report, field) for field in REPORT_FIELDS}
    # The second read returns the kept values (fix_dim is the basis's width).
    assert report.fix_dim == first["fix_dim"]
    for field in REPORT_FIELDS:
        assert field == "fix_dim" or getattr(report, field) is first[field], field
    assert kernel_calls.count("general_eigenvalues") == 1
    assert kernel_calls.count("null_space") <= 1
    assert len(norm_calls) == one_read


@pytest.mark.parametrize("seed", range(4))
def test_an_iso_verdict_alone_takes_no_spectrum_and_no_basis(kernel_calls, seed):
    assert splitting.spectral_report(random_operator(seed).T).is_iso_averaged
    assert kernel_calls == []


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
def test_iso_verdict_equals_the_exact_one(seed):
    t0 = random_operator(seed).T
    decided = set()
    for eta in ETAS:
        t = (1.0 + eta) * t0
        verdict = splitting.spectral_report(t).is_iso_averaged
        assert verdict is _iso_verdict(t)[1]
        decided.add(_iso_bounds(t)[0])
    assert decided == {"upper", "lower", None}


def _screened_iso_defect(t, tol):
    """The defect of `experiments._witness_search` screened at tol: ||A||_F
    when 2 ||A||_F is at most tol, else ||A||_2, from the report's `iso`."""
    iso = splitting.spectral_report(t).iso
    return iso.frobenius if iso.upper() <= tol else iso.exact()


@SETTINGS
@given(configurations(), st.sampled_from(ETAS))
def test_screened_defect_is_exact_above_its_screen(config, eta):
    t = (1.0 + eta) * splitting.build(*config).T
    iso = _iso_defect(t)
    bound = float(np.linalg.norm(2.0 * (t.T @ t) - t - t.T))
    for tol in (splitting.DEFECT_TOL, experiments.WITNESS_TOL):
        defect = _screened_iso_defect(t, tol)
        if 2.0 * bound <= tol:
            assert defect.hex() == bound.hex() and iso <= 2.0 * bound
        else:
            assert defect.hex() == iso.hex()
    assert splitting.spectral_report(t).is_iso_averaged is _iso_verdict(t)[1]


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
    """(record, pair, unscreened witness search or None) of every trial."""
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
                _, consistent = _iso_verdict(op.T)
                records.append((experiments.TrialRecord(name, n, d, True, consistent, None), gp, None))
            else:
                res = _unscreened_witness_search(gp, d)
                record = experiments.TrialRecord(name, n, d, False, res.found, res.index)
                records.append((record, gp, res))
    return records


def _assert_same_defect(screened, exact, tol):
    """Exact above the screen at tol / 2, bit for bit; a bound below it."""
    if 2.0 * screened > tol:
        assert screened.hex() == exact.hex()
    else:
        assert exact <= 2.0 * screened


def test_screened_trials_equal_the_unscreened_ones():
    for seed in range(50):
        want = _unscreened_trials(seed, 3)
        assert experiments.graph_equality_trials(seed, 3) == [record for record, _, _ in want]
        for record, gp, res in want:
            if res is not None:
                # The search the trial read finds the same witness, with the
                # defect's bits.
                found = experiments.witness_search(gp, record.d)
                assert found.found and found.defect.hex() == res.defect.hex()


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


def test_laplacian_factor_is_a_fresh_array_and_builds_keep_the_cached_one():
    gp = graphs.pair(graphs.preset("ring", 5))
    spaces = subspaces.product([subspaces.random_subspace(2, 1, k) for k in range(5)])
    t = splitting.build(gp, spaces).T
    z = graphs.laplacian_factor(gp.gp)
    again = graphs.laplacian_factor(graphs.preset("ring", 5))
    assert again is not z and np.array_equal(again, z)
    # A caller may change its own factor: no later factor or build sees it.
    z[0, 0] = 7.0
    assert np.array_equal(graphs.laplacian_factor(gp.gp), again)
    op = splitting.build(gp, spaces)
    assert op.Z is splitting._lifts(gp, 2)[0] and np.array_equal(op.Z, again)
    assert np.array_equal(op.T, t)


def test_graph_matrices_are_fresh_arrays():
    g = graphs.preset("ring", 5)
    mats = graphs.matrices(g)
    again = graphs.matrices(graphs.preset("ring", 5))
    assert all(a is not b and np.array_equal(a, b) for a, b in zip(mats, again))
    # A caller may change its own matrices: no later call sees it.
    for m in mats:
        m[0, 0] = 7.0
    assert all(np.array_equal(a, b) for a, b in zip(graphs.matrices(g), again))


def test_witness_search_factors_its_subgraph_once(monkeypatch):
    calls = []
    original = matlin.qr

    def counting(a, pivoting=False):
        calls.append(a.shape)
        return original(a, pivoting)

    monkeypatch.setattr(matlin, "qr", counting)
    splitting._lifts.cache_clear()
    experiments._witness_search.cache_clear()
    # G = G' has no witness, so the search builds once per node.
    result = experiments.witness_search(graphs.pair(graphs.preset("complete", 6)), 2)
    assert not result.found
    assert calls == [(15, 6)]


def test_cached_factor_still_rebases_and_yields_to_a_supplied_z():
    gp = graphs.pair(graphs.preset("ring", 4), graphs.preset("sequential", 4))
    spaces = subspaces.product([subspaces.random_subspace(2, 1, k) for k in range(4)])
    op = splitting.build(gp, spaces)
    assert op.Z is splitting._lifts(gp, 2)[0]
    assert np.array_equal(op.Z, graphs.laplacian_factor(gp.gp))
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
    experiments._witness_search.cache_clear()
    splitting._lifts.cache_clear()
    assert cli.main(["verify", "--seed", "1", "--trials", "1"]) == 0
    assert "summary: 9/9" in capsys.readouterr().out
    # 29 draws: 11 of dim 0 and 10 of dim d take no QR; the 8 others take one
    # each. The 9 pivoted QRs factor the subgraph Laplacians, once per
    # distinct (pair, d) of a build with the default factor.
    assert len(draws) == 29
    assert sum(dim == 0 for _, dim in draws) == 11
    assert sum(dim == ambient for ambient, dim in draws) == 10
    assert qrs.count("draw") == sum(0 < dim < ambient for ambient, dim in draws) == 8
    assert qrs.count("factor") == splitting._lifts.cache_info().misses == 9
    # No draw, and no full or trivial factor of a witness, runs the check.
    assert checks == []
