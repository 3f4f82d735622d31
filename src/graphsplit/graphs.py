"""Algorithmic graphs and their matrix companions.

An algorithmic graph is a connected directed graph on nodes 1..n whose
every edge (i, j) satisfies i < j; the orientation is what later makes the
splitting operator computable by forward substitution. This module builds
the adjacency, degree, Laplacian and update matrices, and factors the
Laplacian of a connected spanning subgraph as Z Z^T with Z of full column
rank n-1. Only `preset` keeps a cache, of frozen graphs: the matrices and
the factor are fresh arrays on every call, and `splitting` keeps the
factor and its lifts once per (graph pair, d).

Node indices are 1-based at the boundary (matching the usual convention
for these methods) and 0-based in array code. A config's graphs are read
by `cli`, which builds them with `preset` and `AlgorithmicGraph`.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import matlin
from ._json import whole

PRESETS = ("sequential", "ring", "parallel_up", "parallel_down", "biparallel", "complete")


@dataclass(frozen=True)
class AlgorithmicGraph:
    """Directed graph on nodes 1..n with every edge (i, j) satisfying i < j."""

    n: int
    edges: tuple

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple((int(i), int(j)) for i, j in self.edges))
        if self.n < 1:
            raise ValueError("need at least one node")
        seen = set()
        for i, j in self.edges:
            if not (1 <= i < j <= self.n):
                raise ValueError(f"edge ({i}, {j}) must satisfy 1 <= i < j <= {self.n}")
            if (i, j) in seen:
                raise ValueError(f"edge ({i}, {j}) appears twice")
            seen.add((i, j))
        if not _connected(self.n, self.edges):
            raise ValueError("underlying undirected graph is not connected")

    def degrees(self):
        """Undirected degree of every node (in-edges plus out-edges)."""
        d = np.zeros(self.n, dtype=int)
        for i, j in self.edges:
            d[i - 1] += 1
            d[j - 1] += 1
        return d

    def in_neighbors(self):
        """For each node i (0-based), the 0-based sources h of edges (h, i)."""
        inn = [[] for _ in range(self.n)]
        for i, j in self.edges:
            inn[j - 1].append(i - 1)
        return [tuple(t) for t in inn]


def _connected(n, edges):
    if n == 1:
        return True
    adj = [[] for _ in range(n)]
    for i, j in edges:
        adj[i - 1].append(j - 1)
        adj[j - 1].append(i - 1)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


@dataclass(frozen=True)
class GraphPair:
    """A graph together with a connected spanning subgraph."""

    g: AlgorithmicGraph
    gp: AlgorithmicGraph

    def __post_init__(self):
        if self.g.n != self.gp.n:
            raise ValueError("graph and subgraph must share the node set")
        missing = set(self.gp.edges) - set(self.g.edges)
        if missing:
            raise ValueError(f"subgraph edges not in graph: {sorted(missing)}")

    @property
    def same(self):
        return set(self.g.edges) == set(self.gp.edges)


def pair(g, gp=None):
    """Bundle a graph with its spanning subgraph (defaults to the graph itself)."""
    return GraphPair(g, g if gp is None else gp)


def matrices(g):
    """Adjacency, degree, Laplacian and update matrix B = Deg - 2 Adj^T."""
    n = g.n
    adj = np.zeros((n, n))
    for i, j in g.edges:
        adj[i - 1, j - 1] = 1.0
    deg = np.diag(g.degrees().astype(float))
    return adj, deg, deg - adj - adj.T, deg - 2.0 * adj.T


def incidence(g):
    """Oriented incidence matrix: +1 at the edge source, -1 at the target.

    One column per edge in listed order; E E^T equals the Laplacian. For a
    spanning tree this is already a valid n x (n-1) Laplacian factor.
    """
    e = np.zeros((g.n, len(g.edges)))
    for col, (i, j) in enumerate(g.edges):
        e[i - 1, col] = 1.0
        e[j - 1, col] = -1.0
    return e


def laplacian_factor(g):
    """Full-column-rank Z of shape n x (n-1) with Z Z^T = Lap(g).

    Built from the pivoted QR of the transposed incidence matrix, so the
    reconstruction is exact up to round-off and no eigen-solve is needed.
    """
    n = g.n
    e = incidence(g)
    _, r, perm = matlin.qr(e.T, pivoting=True)
    z0 = r[: n - 1, :].T
    z = np.zeros((n, n - 1))
    z[perm, :] = z0
    return z


def preset(name, n):
    """One of the named graph families on n nodes.

    The graph is frozen, so it is built once per (name, n) (the last 256
    are kept) and an equal call gets the same object. The name and size
    are checked before the cache is consulted, so an unknown or unhashable
    name, or a size that is not an integer, raises a ValueError.
    """
    if not isinstance(name, str) or name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}, expected one of {PRESETS}")
    if not whole(n):
        raise ValueError(f"preset size must be an integer, got {n!r}")
    if n < 2:
        raise ValueError("presets need at least two nodes")
    if name in ("ring", "biparallel") and n < 3:
        raise ValueError(f"{name} needs at least three nodes")
    # The checks run ahead of the cache, which could not hash a list name
    # and would answer for 5.0 or True with the graph of 5 or 1.
    return _preset(name, int(n))


@functools.lru_cache(maxsize=256)
def _preset(name, n):
    if name == "sequential":
        edges = [(i, i + 1) for i in range(1, n)]
    elif name == "ring":
        edges = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    elif name == "parallel_up":
        edges = [(1, i) for i in range(2, n + 1)]
    elif name == "parallel_down":
        edges = [(i, n) for i in range(1, n)]
    elif name == "biparallel":
        edges = sorted({(1, i) for i in range(2, n + 1)} | {(i, n) for i in range(1, n)})
    else:  # complete
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return AlgorithmicGraph(n, tuple(edges))
