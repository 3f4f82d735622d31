"""The norm budget: callers take only the norms and factors they read, with
the same expressions, so the same bits, as the full certificates."""

import math

import numpy as np
import pytest
from conftest import eig_multiset_close
from hypothesis import given
from hypothesis import strategies as st
from test_properties import SAME, SETTINGS, configurations

from graphsplit import experiments, graphs, matlin, splitting, subspaces


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


def _assert_same_certificate(t):
    cert = splitting.certificates(t)
    iso, verdict = splitting.iso_verdict(t)
    assert splitting.iso_defect(t).hex() == cert.iso_defect.hex()
    assert iso.hex() == cert.iso_defect.hex()
    assert verdict is cert.is_iso_averaged
    return cert


# Scales c T with c = 1 + eta: for iso-averaged T the iso defect of c T is
# about 2 eta ||T||^2, which crosses DEFECT_TOL and then the threshold.
ETAS = [0.0, *np.geomspace(1e-11, 1e-6, 51).tolist()]


@pytest.mark.parametrize("seed", range(6))
def test_report_takes_three_norms(norm_calls, seed):
    splitting.spectral_report(experiments.random_operator(seed).T)
    assert len(norm_calls) == 3


def test_a_near_identity_report_takes_the_exact_identity_test(norm_calls):
    report = splitting.spectral_report(np.eye(4) + 1e-13 * np.ones((4, 4)))
    assert report.fix_dim == 4
    assert len(norm_calls) == 5


def test_an_equal_graph_trial_and_a_witness_node_take_one_norm_each(norm_calls):
    records = experiments.graph_equality_trials(seed=3, trials=4)
    nodes = sum(r.witness_index or r.n for r in records if not r.same)
    same = [r for r in records if r.same]
    assert all(r.defect <= splitting.DEFECT_TOL for r in same)
    assert len(norm_calls) == len(same) + nodes


def test_verdict_takes_the_norm_of_t_only_above_defect_tol(norm_calls):
    t = experiments.random_operator(2).T
    splitting.iso_verdict(t)
    assert len(norm_calls) == 1
    iso, verdict = splitting.iso_verdict(1.001 * t)
    assert iso > splitting.DEFECT_TOL and not verdict
    assert len(norm_calls) == 3


@SETTINGS
@given(configurations(), st.sampled_from(ETAS))
def test_narrow_certificates_equal_the_full_ones(config, eta):
    _assert_same_certificate((1.0 + eta) * splitting.build(*config).T)


def test_scaled_maps_run_every_branch_of_the_verdict():
    branches = set()
    for seed in range(4):
        t = experiments.random_operator(seed).T
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


def test_laplacian_factor_is_cached_and_read_only():
    g = graphs.preset("ring", 5)
    z = graphs.laplacian_factor(g)
    assert graphs.laplacian_factor(graphs.preset("ring", 5)) is z
    assert graphs.laplacian_factor(graphs.preset("sequential", 5)) is not z
    assert not z.flags.writeable
    with pytest.raises(ValueError):
        z[0, 0] = 1.0


def test_witness_search_factors_its_subgraph_once(monkeypatch):
    calls = []
    original = matlin.qr

    def counting(a, pivoting=False):
        calls.append(a.shape)
        return original(a, pivoting)

    monkeypatch.setattr(matlin, "qr", counting)
    graphs._laplacian_factor.cache_clear()
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
    turned = splitting.rebase(op, o)
    assert turned.Z.flags.writeable
    assert np.array_equal(turned.Z, op.Z @ o)
    want = np.linalg.eigvals(op.T)
    assert eig_multiset_close(np.linalg.eigvals(turned.T), want, 1e-10)
    tree = splitting.build(gp, spaces, z=graphs.incidence(gp.gp))
    assert np.array_equal(tree.Z, graphs.incidence(gp.gp))
    assert eig_multiset_close(np.linalg.eigvals(tree.T), want, 1e-10)
