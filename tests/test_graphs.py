"""Graph validation, derived matrices, and Laplacian factorization."""

import numpy as np
import pytest

from graphsplit import graphs, matlin


def test_validate_sequential():
    g = graphs.AlgorithmicGraph(3, [(1, 2), (2, 3)])
    assert g.n == 3
    assert g.edges == ((1, 2), (2, 3))


def test_validate_bad_orientation():
    with pytest.raises(ValueError, match=r"^edge \(2, 1\) must satisfy 1 <= i < j <= 3$"):
        graphs.AlgorithmicGraph(3, [(2, 1)])


def test_validate_out_of_range_edge():
    with pytest.raises(ValueError, match=r"^edge \(1, 4\) must satisfy 1 <= i < j <= 3$"):
        graphs.AlgorithmicGraph(3, [(1, 2), (2, 3), (1, 4)])


def test_validate_disconnected():
    with pytest.raises(ValueError, match="^underlying undirected graph is not connected$"):
        graphs.AlgorithmicGraph(4, [(1, 2), (3, 4)])


def test_validate_duplicate_edge():
    with pytest.raises(ValueError, match=r"^edge \(1, 2\) appears twice$"):
        graphs.AlgorithmicGraph(3, [(1, 2), (1, 2), (2, 3)])


@pytest.mark.parametrize(
    "name,n,expected",
    [
        ("sequential", 2, ((1, 2),)),
        ("parallel_down", 4, ((1, 4), (2, 4), (3, 4))),
        ("parallel_up", 4, ((1, 2), (1, 3), (1, 4))),
        ("ring", 3, ((1, 2), (2, 3), (1, 3))),
        ("biparallel", 4, ((1, 2), (1, 3), (1, 4), (2, 4), (3, 4))),
        ("complete", 4, ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))),
    ],
)
def test_preset_edge_sets(name, n, expected):
    assert set(graphs.preset(name, n).edges) == set(expected)


def test_preset_bad_sizes():
    with pytest.raises(ValueError, match="^presets need at least two nodes$"):
        graphs.preset("sequential", 1)
    with pytest.raises(ValueError, match="^ring needs at least three nodes$"):
        graphs.preset("ring", 2)
    with pytest.raises(ValueError, match="^biparallel needs at least three nodes$"):
        graphs.preset("biparallel", 2)
    with pytest.raises(ValueError, match="^unknown preset 'unknown', expected one of"):
        graphs.preset("unknown", 4)


def test_matrices_sequential():
    adj, deg, lap, b = graphs.matrices(graphs.preset("sequential", 3))
    assert np.array_equal(adj, np.array([[0.0, 1, 0], [0, 0, 1], [0, 0, 0]]))
    assert np.array_equal(deg, np.diag([1.0, 2.0, 1.0]))
    assert np.array_equal(b, np.array([[1.0, 0, 0], [-2, 2, 0], [0, -2, 1]]))
    assert np.array_equal(lap, np.array([[1.0, -1, 0], [-1, 2, -1], [0, -1, 1]]))


def test_matrices_ring():
    _, deg, _, b = graphs.matrices(graphs.preset("ring", 3))
    assert np.array_equal(deg, 2.0 * np.eye(3))
    assert np.array_equal(b, np.array([[2.0, 0, 0], [-2, 2, 0], [-2, -2, 2]]))


def test_matrices_single_edge():
    _, _, lap, _ = graphs.matrices(graphs.preset("sequential", 2))
    assert np.array_equal(lap, np.array([[1.0, -1.0], [-1.0, 1.0]]))


def test_laplacian_is_symmetrized_b():
    for name in graphs.PRESETS:
        g = graphs.preset(name, 5)
        _, _, lap, b = graphs.matrices(g)
        assert np.allclose(lap, 0.5 * (b + b.T), atol=1e-14)


def test_laplacian_kernel_is_ones():
    for name in graphs.PRESETS:
        g = graphs.preset(name, 6)
        _, _, lap, _ = graphs.matrices(g)
        assert np.linalg.norm(lap @ np.ones(6)) <= 1e-12
        kernel = matlin.null_space(lap)
        assert kernel.shape[1] == 1


def test_laplacian_edge_difference():
    g = graphs.preset("ring", 5)
    gp = graphs.preset("sequential", 5)
    _, _, lap_g, _ = graphs.matrices(g)
    _, _, lap_gp, _ = graphs.matrices(gp)
    assert set(g.edges) - set(gp.edges) == {(1, 5)}
    # The ring drops to the chain by losing edge (1, 5), whose Laplacian is e e^T
    # with e = e_1 - e_5.
    e = np.zeros(5)
    e[0], e[4] = 1.0, -1.0
    assert np.array_equal(lap_gp, lap_g - np.outer(e, e))


def test_incidence_reconstructs_laplacian():
    for name in graphs.PRESETS:
        g = graphs.preset(name, 5)
        _, _, lap, _ = graphs.matrices(g)
        e = graphs.incidence(g)
        assert np.allclose(e @ e.T, lap, atol=1e-14)


def test_laplacian_factor_sequential_example():
    g = graphs.preset("sequential", 3)
    _, _, lap, _ = graphs.matrices(g)
    z = graphs.laplacian_factor(g)
    assert z.shape == (3, 2)
    assert np.linalg.norm(z @ z.T - lap) <= 1e-10 * np.linalg.norm(lap)
    # The tree incidence matrix is one valid factor of the same Laplacian.
    tree = np.array([[1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]])
    assert np.allclose(tree @ tree.T, lap, atol=1e-14)


@pytest.mark.parametrize("name", graphs.PRESETS)
@pytest.mark.parametrize("n", range(2, 13))
def test_laplacian_factor_presets(name, n):
    if name in ("ring", "biparallel") and n < 3:
        pytest.skip("preset needs three nodes")
    g = graphs.preset(name, n)
    _, _, lap, _ = graphs.matrices(g)
    z = graphs.laplacian_factor(g)
    assert z.shape == (n, n - 1)
    assert np.linalg.norm(z @ z.T - lap) <= 1e-10 * max(np.linalg.norm(lap), 1.0)
    assert np.linalg.matrix_rank(z, tol=1e-10) == n - 1


def test_laplacian_factor_star():
    g = graphs.preset("parallel_down", 4)
    _, _, lap, _ = graphs.matrices(g)
    assert np.array_equal(np.diagonal(lap), [1.0, 1.0, 1.0, 3.0])
    z = graphs.laplacian_factor(g)
    assert np.linalg.norm(z @ z.T - lap) <= 1e-10 * np.linalg.norm(lap)


def test_pair_accepts_subgraph():
    gp = graphs.pair(graphs.preset("ring", 4), graphs.preset("sequential", 4))
    assert not gp.same
    assert graphs.pair(graphs.preset("ring", 4)).same


def test_pair_rejects_non_subgraph():
    with pytest.raises(ValueError, match=r"^subgraph edges not in graph: \[\(1, 4\)\]$"):
        graphs.pair(graphs.preset("sequential", 4), graphs.preset("ring", 4))
    with pytest.raises(ValueError, match="^graph and subgraph must share the node set$"):
        graphs.pair(graphs.preset("sequential", 4), graphs.preset("sequential", 3))


def test_degrees_and_in_neighbors():
    g = graphs.preset("biparallel", 4)
    assert list(g.degrees()) == [3, 2, 2, 3]
    assert g.degree_list == (3, 2, 2, 3)
    assert g.in_neighbors == ((), (0,), (0,), (0, 1, 2))
    # The graph is frozen, so each is computed once and read back as the same
    # object, while degrees() stays a fresh array.
    assert g.degree_list is g.degree_list
    assert g.in_neighbors is g.in_neighbors
    assert g.degrees() is not g.degrees()


def test_presets_are_cached_and_checked_first():
    g = graphs.preset("ring", 5)
    assert graphs.preset("ring", 5) is g
    assert graphs.preset("ring", np.int64(5)) is g
    assert graphs.preset("sequential", 5) is not g
    with pytest.raises(ValueError, match="^unknown preset"):
        graphs.preset({"ring": 1}, 4)
    # 5.0 and True would share a cache entry with 5 and 1.
    for n in (5.0, True, "5"):
        with pytest.raises(ValueError, match="^preset size must be an integer, got "):
            graphs.preset("ring", n)
