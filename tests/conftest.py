import numpy as np

from graphsplit import graphs, splitting, subspaces
from graphsplit._rng import SplitMix64


def eig_multiset_close(got, want, tol):
    """Multiset comparison of complex spectra with a greedy nearest match."""
    want = list(want)
    if len(got) != len(want):
        return False
    for lam in got:
        j = min(range(len(want)), key=lambda i: abs(want[i] - lam))
        if abs(want[j] - lam) > tol:
            return False
        want.pop(j)
    return True


def svd_sigma_min(a):
    s = np.linalg.svd(a, compute_uv=False)
    return float(s[-1]) if s.size else 0.0


def random_operator(seed, n_lo=2, n_hi=6):
    """Seeded splitting operator on a preset graph with G = G', on n_lo to
    n_hi nodes (2 to 6 by default) in R^1 to R^4.

    Such operators are iso-averaged whatever the subspaces, which makes the
    factory a convenient source of test subjects for the rate and symmetry
    experiments. Draws that collapse to the identity map (every node space
    the full space on two nodes, say) carry no subdominant spectrum and are
    deterministically redrawn.
    """
    rng = SplitMix64(seed)
    for _ in range(32):
        name = rng.choice(graphs.PRESETS)
        n_min = 3 if name in ("ring", "biparallel") else 2
        n = rng.randint(max(n_lo, n_min), max(n_hi, n_min))
        d = rng.randint(1, 4)
        factors = [
            subspaces.random_subspace(d, rng.randint(1, d), rng.next_uint64()) for _ in range(n)
        ]
        op = splitting.build(graphs.pair(graphs.preset(name, n)), subspaces.product(factors))
        if np.max(np.abs(op.T - np.eye(op.size))) > 1e-12:
            return op
    raise RuntimeError("could not draw a non-identity operator")
