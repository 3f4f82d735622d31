"""Properties of the construction over random graph pairs and node spaces."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from graphsplit import experiments, graphs, matlin, splitting, subspaces

SETTINGS = settings(derandomize=True, deadline=None, database=None)

# Every preset paired with itself, then the three pairs with G != G'.
CATALOG = experiments.pair_catalog()
SAME = [entry for entry in CATALOG if entry[1](3).same]


@st.composite
def configurations(draw, catalog=CATALOG, kind="random"):
    """A graph pair on 3 to 6 nodes and one subspace of R^d (1 <= d <= 3) per node."""
    _, make = draw(st.sampled_from(catalog))
    n = draw(st.integers(3, 6))
    d = draw(st.integers(1, 3))
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
    assert splitting.certificates(splitting.build(*config).T).is_iso_averaged


@SETTINGS
@given(configurations(kind="trivial"))
def test_trivial_spaces_give_the_identity(config):
    op = splitting.build(*config)
    assert np.array_equal(op.T, np.eye(op.size))


@SETTINGS
@given(configurations(kind="full"))
def test_full_spaces_solve_against_the_lifted_update_matrix(config):
    # With P = I the block map is the lifted B itself, so C = Zbar^T Bbar^{-1} Zbar.
    graph_pair, spaces = config
    n, d = graph_pair.g.n, spaces.ambient
    tree = len(graph_pair.gp.edges) == n - 1
    op = splitting.build(graph_pair, spaces, z=graphs.incidence(graph_pair.gp) if tree else None)
    _, _, _, b = graphs.matrices(graph_pair.g)
    zbar = matlin.kron_lift(op.Z, d)
    expected = zbar.T @ np.linalg.solve(matlin.kron_lift(b, d), zbar)
    assert np.max(np.abs(op.C - expected)) <= 1e-12
