"""Properties of the construction over random graph pairs and node spaces."""

import functools
import importlib.util
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import EPS, assert_rate, eig_multiset_close, exact_rate, full_report, random_operator
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsplit import cli, experiments, graphs, matlin, splitting, subspaces
from graphsplit._rng import SplitMix64

SETTINGS = settings(derandomize=True, deadline=None, database=None)

# Every preset paired with itself, then the three pairs with G != G'.
CATALOG = experiments.pair_catalog()
SAME = [entry for entry in CATALOG if entry[1](3).same]


@st.composite
def configurations(draw, catalog=CATALOG, kind="random", d_max=3):
    """A graph pair on 3 to 6 nodes and one subspace of R^d (1 <= d <= d_max,
    3 by default) per node."""
    _, make = draw(st.sampled_from(catalog))
    n = draw(st.integers(3, 6))
    d = draw(st.integers(1, d_max))
    if kind == "full":
        factors = [subspaces.full(d)] * n
    elif kind == "trivial":
        factors = [subspaces.trivial(d)] * n
    else:
        dims = draw(st.lists(st.integers(0, d), min_size=n, max_size=n))
        seed = draw(st.integers(0, 2**32 - 1))
        factors = [subspaces.random_subspace(d, dim, seed + i) for i, dim in enumerate(dims)]
    return make(n), subspaces.product(factors)


@SETTINGS
@given(st.integers(1, 30).flatmap(lambda d: st.tuples(st.just(d), st.integers(0, d))),
       st.integers(0, 2**64 - 1))
def test_random_subspace_is_orthonormal_without_the_check(shape, seed):
    # random_subspace takes the Householder Q without Subspace's finiteness
    # check, and its own check of the orthonormality rule must never trip:
    # a draw that raised here would fail a correct run with exit 3.
    ambient, dim = shape
    u = subspaces.random_subspace(ambient, dim, seed)
    assert u.basis.shape == (ambient, dim)
    if dim:
        assert np.max(np.abs(u.basis.T @ u.basis - np.eye(dim))) <= 1e-12
        with pytest.raises(ValueError):
            subspaces.Subspace(2.0 * u.basis)
    if dim == ambient:
        assert np.array_equal(u.projector(), np.eye(ambient))


@SETTINGS
@given(configurations())
def test_dense_matches_matrix_free(config):
    op = splitting.build(*config)
    columns = np.column_stack(
        [splitting.apply_iterative(op, e)[0] for e in np.eye(op.size)]
    )
    tol = 1e-12 * (1.0 + np.linalg.norm(op.T, 2))
    assert np.max(np.abs(op.T - columns)) <= tol


@SETTINGS
@given(configurations(catalog=SAME))
def test_equal_graphs_give_iso_averaged_maps(config):
    assert splitting.spectral_report(splitting.build(*config).T).is_iso_averaged


@SETTINGS
@given(configurations(catalog=SAME))
def test_equal_graphs_put_every_eigenvalue_on_the_half_circle(config):
    eigs = np.linalg.eigvals(splitting.build(*config).T)
    assert np.max(np.abs(np.abs(eigs - 0.5) - 0.5)) <= 1e-12


@SETTINGS
@given(configurations())
def test_the_isometry_defect_of_2t_minus_i_is_twice_the_iso_defect(config):
    t = splitting.build(*config).T
    r = 2.0 * t - np.eye(len(t))
    iso = splitting.spectral_report(t).iso_defect
    assert abs(np.linalg.norm(r.T @ r - np.eye(len(t)), 2) - 2.0 * iso) <= 1e-12 * (1.0 + iso)


@functools.cache
def _referee():
    """`tests/golden/referee.py`, whose exact defects judge printed ones."""
    path = Path(__file__).resolve().parent / "golden" / "referee.py"
    spec = importlib.util.spec_from_file_location("properties_referee", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# c T for c = 1 + eta: at eta = 0 a G = G' map has both defects under the
# floor, and its iso defect, about 2 eta ||T||^2, crosses the floor as eta
# grows; eta = -1/2 halves T.
FLOOR_ETAS = [0.0, -0.5, *np.geomspace(1e-16, 1e-10, 13).tolist()]


@SETTINGS
@given(configurations(d_max=6), st.sampled_from(FLOOR_ETAS))
def test_a_defect_under_its_floor_prints_0_and_one_above_keeps_its_norm(config, eta):
    # N = (n - 1) d is at most 30, the benchmark's largest.
    t = (1.0 + eta) * splitting.build(*config).T
    report = full_report(t)
    gram = t.T @ t
    matrices = {"normality_defect": gram - t @ t.T, "iso_defect": 2.0 * gram - t - t.T}
    exact, floor = _referee().exact_defects(t)
    nrm = matlin.operator_norm(t)
    for field, a in matrices.items():
        defect, norm = getattr(report, field), matlin.operator_norm(a)
        if defect == 0.0:
            # ||A||_F of the matrix formed exactly in rationals from the float T.
            assert exact[field][2] <= (Fraction(3, 2) * floor) ** 2, field
        else:
            assert defect.hex() == norm.hex(), field
        verdict = report.is_normal if field == "normality_defect" else report.is_iso_averaged
        assert verdict is (norm <= splitting.DEFECT_TOL * (1.0 + nrm * nrm)), field


def test_a_printed_0_never_hides_a_counted_defect():
    # ||T||_F^2 <= N ||T||_2^2, so at N = MAX_SIZE the floor
    # 2 N eps (1 + ||T||_F^2) is at most 2 N^2 eps (1 + ||T||_2^2), which is
    # below DEFECT_TOL (1 + ||T||_2^2): a defect printed as 0 counts as 0.
    n = cli.MAX_SIZE
    assert 2 * n * n * Fraction(EPS) <= Fraction(4.5e-10) < Fraction(splitting.DEFECT_TOL)


def _squared_norm_gap(t, theta, x):
    """||T_theta x||^2 - ||T_(2 - theta) x||^2."""
    near, far = (splitting.relax(t, th) @ x for th in (theta, 2.0 - theta))
    return near @ near - far @ far


@SETTINGS
@given(configurations(), st.floats(0.01, 1.99), st.integers(0, 2**64 - 1))
def test_the_norm_symmetry_gap_is_the_iso_quadratic_form(config, theta, seed):
    # ||T_theta x||^2 - ||T_(2 - theta) x||^2 = 2 (theta - 1) x^T A x with
    # A = 2 T^T T - T - T^T, so the gap vanishes for every x and theta
    # exactly when A = 0, the iso-averaged certificate. On a unit eigenvector
    # of A for its eigenvalue of largest modulus the gap is
    # 2 |theta - 1| ||A||_2 = 2 |theta - 1| iso_defect, G != G' included.
    t = splitting.build(*config).T
    a = 2.0 * t.T @ t - t - t.T
    tol = 1e-13 * (1.0 + np.linalg.norm(t)) ** 2
    x = SplitMix64(seed).normals(len(t))
    gap = _squared_norm_gap(t, theta, x)
    assert abs(gap - 2.0 * (theta - 1.0) * (x @ a @ x)) <= tol * (x @ x)
    w, v = np.linalg.eigh(a)
    top = v[:, np.argmax(np.abs(w))]
    gap = _squared_norm_gap(t, theta, top)
    assert abs(abs(gap) - 2.0 * abs(theta - 1.0) * splitting.spectral_report(t).iso_defect) <= tol


# A distance punched into a trace that the rate fit must not read.
PUNCHES = st.lists(
    st.tuples(st.integers(0, 79), st.sampled_from([experiments.RATE_FLOOR, 0.0, math.inf, math.nan])),
    max_size=4,
)


@SETTINGS
@given(st.floats(0.05, 1.2, exclude_min=True, exclude_max=True),
       st.floats(-2.0, 2.0) | st.floats(-700.0, 700.0), st.integers(2, 80), PUNCHES)
def test_a_geometric_trace_fits_its_rate(r, log_c, length, punches):
    # d_k = c r^k, with or without unusable distances in the trace. Centring
    # the logs as well as the iterations keeps the fit within the bound of
    # the exact fit of the same logs for any c. That is r itself for a trace
    # that starts within e^2 of 1; further from 1 each log carries its own
    # rounding, eps |log d|, into the slope of any fit.
    dists = np.array([math.exp(log_c) * r**k for k in range(length)])
    for k, dist in punches:
        dists[k % length] = dist
    [got] = experiments._fit_rates([dists])
    want = exact_rate(list(enumerate(dists.tolist())))
    assert_rate(got, want)
    if want is not None and abs(log_c) <= 2.0:
        assert_rate(got, r)


@SETTINGS
@given(st.lists(st.sampled_from([experiments.RATE_FLOOR, 0.0, 1e-300, math.inf, math.nan]),
                max_size=20),
       st.lists(st.tuples(st.integers(0, 20), st.floats(2.0 * experiments.RATE_FLOOR, 1e300)),
                max_size=2))
def test_a_tail_of_at_most_one_point_has_no_rate(unusable, usable):
    # Two usable distances leave a tail of one: the last half of the trace.
    dists = list(unusable)
    for k, dist in usable:
        dists.insert(k, dist)
    assert experiments._fit_rates([np.array(dists, dtype=float)]) == [None]


@SETTINGS
@given(configurations(catalog=SAME), st.floats(0.01, 1.99))
def test_relaxing_maps_the_spectrum_affinely(config, theta):
    # G = G' keeps T normal, so its eigenvalues are well conditioned. For
    # G != G' a near-defective cluster at 1/2 (ring/sequential) is not: its
    # computed members move by up to 1.7e-4 under the relaxation's rounding,
    # while the eigenvalue 1 stays simple.
    t = splitting.build(*config).T
    got = np.linalg.eigvals(splitting.relax(t, theta))
    want = theta * np.linalg.eigvals(t) + 1.0 - theta
    assert eig_multiset_close(got, want, 1e-12)


@SETTINGS
@given(configurations(kind="trivial"))
def test_trivial_spaces_give_the_identity(config):
    op = splitting.build(*config)
    assert np.array_equal(op.T, np.eye(op.size))


def _padded_t(graph_pair, spaces, z):
    """T by the nd x nd ambient system, the oracle for `build`: X solves
    M X = P Zbar with M = P Bbar P + (I - P), P the block-diagonal stack of
    the factor projectors, and T = I - Zbar^T X."""
    n, d = graph_pair.g.n, spaces.ambient
    p = np.zeros((n * d, n * d))
    for i, f in enumerate(spaces.factors):
        p[i * d : (i + 1) * d, i * d : (i + 1) * d] = f.projector()
    bbar, zbar = matlin.kron_lift(graphs.matrices(graph_pair.g)[3], d), matlin.kron_lift(z, d)
    m = p @ bbar @ p + (np.eye(n * d) - p)
    return np.eye((n - 1) * d) - zbar.T @ np.linalg.solve(m, p @ zbar)


@SETTINGS
@given(configurations(d_max=4), st.one_of(st.none(), st.integers(0, 2**32 - 1)))
def test_build_matches_the_padded_ambient_system(config, seed):
    # The node dimensions run from 0 (a trivial factor) to d (a full one);
    # a seed supplies the factor Z O, O orthogonal, in place of the default.
    graph_pair, spaces = config
    z = None
    if seed is not None:
        n = graph_pair.g.n
        o, _, _ = matlin.qr(SplitMix64(seed).normal_matrix(n - 1, n - 1))
        z = graphs.laplacian_factor(graph_pair.gp) @ o
    op = splitting.build(graph_pair, spaces, z=z)
    want = _padded_t(graph_pair, spaces, op.Z)
    assert np.linalg.norm(op.T - want) <= op.size**2 * EPS * (1.0 + np.linalg.norm(op.T))


@SETTINGS
@given(configurations(kind="full"))
def test_full_spaces_solve_against_the_lifted_update_matrix(config):
    # With full spaces U = I, so U^T Bbar U is the lifted B itself, and
    # C = Zbar^T Bbar^{-1} Zbar.
    graph_pair, spaces = config
    n, d = graph_pair.g.n, spaces.ambient
    tree = len(graph_pair.gp.edges) == n - 1
    op = splitting.build(graph_pair, spaces, z=graphs.incidence(graph_pair.gp) if tree else None)
    _, _, _, b = graphs.matrices(graph_pair.g)
    zbar = matlin.kron_lift(op.Z, d)
    expected = zbar.T @ np.linalg.solve(matlin.kron_lift(b, d), zbar)
    assert np.max(np.abs(op.C - expected)) <= 1e-12


@SETTINGS
@given(configurations(), st.integers(0, 2**32 - 1))
def test_rebased_factor_conjugates_c(config, seed):
    # Z O factors the same Laplacian for an orthogonal O, and the C it gives
    # is Obar^T C Obar with Obar = O (x) I_d: the construction does not
    # depend on the factorization of the Laplacian.
    op = splitting.build(*config)
    o, _, _ = matlin.qr(SplitMix64(seed).normal_matrix(op.n - 1, op.n - 1))
    turned = splitting.build(op.graph_pair, op.spaces, z=op.Z @ o)
    obar = matlin.kron_lift(o, op.d)
    assert np.max(np.abs(turned.C - obar.T @ op.C @ obar)) <= 1e-9
    before, after = splitting.spectral_report(op.T), splitting.spectral_report(turned.T)
    assert (before.is_normal, before.is_iso_averaged) == (after.is_normal, after.is_iso_averaged)


def _unequal_pairs():
    """Every catalog pair with G != G' on 3 to 7 nodes, with its node degrees in G and G'."""
    for _, make in CATALOG:
        for n in range(3, 8):
            graph_pair = make(n)
            if not graph_pair.same:
                yield graph_pair, graph_pair.g.degrees(), graph_pair.gp.degrees()


def test_coordinate_products_have_a_closed_form():
    # Full only at node i, P Zbar has one nonzero block and M is the identity
    # but for deg_i I_d on block i, so T = (I - z_i z_i^T / deg_i) (x) I_d for
    # the row z_i of Z. As |z_i|^2 = Lap(G')_ii = deg'_i, the iso defect is
    # 2 r (1 - r) with r = deg'_i / deg_i.
    for graph_pair, deg, deg_sub in _unequal_pairs():
        n = graph_pair.g.n
        for d in range(1, 4):
            for i in range(n):
                op = splitting.build(graph_pair, subspaces.coordinate_product(n, i + 1, d))
                z = op.Z[i]
                closed = matlin.kron_lift(np.eye(n - 1) - np.outer(z, z) / deg[i], d)
                assert np.max(np.abs(op.T - closed)) <= 1e-13
                r = deg_sub[i] / deg[i]
                assert abs(splitting.spectral_report(op.T).iso_defect - 2.0 * r * (1.0 - r)) <= 1e-13


def test_every_unequal_catalog_pair_has_a_witness():
    # The witness is the first node whose degree in G' is below its degree
    # in G, with the closed-form defect 2 r (1 - r) (n 3 to 7, d 1 to 3).
    for graph_pair, deg, deg_sub in _unequal_pairs():
        first = int(np.flatnonzero(deg_sub < deg)[0])
        r = deg_sub[first] / deg[first]
        for d in range(1, 4):
            result = experiments.witness_search(graph_pair, d)
            assert result.found and result.defect > experiments.WITNESS_TOL
            assert result.index == first + 1
            assert abs(result.defect - 2.0 * r * (1.0 - r)) <= 1e-13


GRID = [i / 10.0 for i in range(1, 20)]  # 0.1, ..., 1.9


def _radius_off_one(t, fix_dim):
    """Largest eigenvalue modulus of t once the fix_dim eigenvalues nearest 1 are set aside."""
    eigs = sorted(matlin.general_eigenvalues(t), key=lambda lam: abs(lam - 1.0))
    return max((abs(lam) for lam in eigs[fix_dim:]), default=0.0)


def _best_theta(t, fix_dim):
    radii = [_radius_off_one(splitting.relax(t, theta), fix_dim) for theta in GRID]
    return GRID[radii.index(min(radii))], radii


@functools.lru_cache(maxsize=None)
def _relaxations_of_equal_graph_operators():
    """(best grid theta, radii over GRID, predicted rates over GRID) of 60 G = G' operators."""
    runs = []
    for seed in range(60):
        t = random_operator(seed).T
        report = splitting.spectral_report(t)
        best, radii = _best_theta(t, report.fix_dim)
        runs.append((best, radii, [splitting.predicted_rate(report.rho1, th) for th in GRID]))
    return runs


def _worst_relaxation_gap():
    """Worst gap of the radii to their mirror image under theta -> 2 - theta and to the formula."""
    worst = 0.0
    for _, radii, predicted in _relaxations_of_equal_graph_operators():
        for a, mirrored, rate in zip(radii, radii[::-1], predicted):
            worst = max(worst, abs(a - mirrored), abs(a - rate))
    return worst


def test_theta_one_is_the_optimal_relaxation():
    # The eigenvalues of each relaxed map come from the eigensolver, not
    # from the relaxation formula they are checked against.
    assert all(best == 1.0 for best, _, _ in _relaxations_of_equal_graph_operators())
    assert _worst_relaxation_gap() <= 1e-7


def test_theta_one_is_the_optimal_relaxation_to_round_off():
    assert _worst_relaxation_gap() <= 1e-12


def test_theta_one_is_not_optimal_for_unequal_graphs():
    # biparallel over parallel_up with full spaces: T has the eigenvalues
    # 1/2, 1/2 and 1, so the radius 1 - theta/2 off 1 keeps falling past 1.
    gp = graphs.pair(graphs.preset("biparallel", 4), graphs.preset("parallel_up", 4))
    t = splitting.build(gp, subspaces.product([subspaces.full(1)] * 4)).T
    report = splitting.spectral_report(t)
    assert not report.is_iso_averaged
    assert np.allclose(sorted(lam.real for lam in report.eigenvalues), [0.5, 0.5, 1.0], atol=1e-12)
    assert max(abs(lam.imag) for lam in report.eigenvalues) <= 1e-12
    best, _ = _best_theta(t, report.fix_dim)
    assert best == 1.9
