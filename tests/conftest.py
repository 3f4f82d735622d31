import math

import numpy as np

from graphsplit import experiments, graphs, splitting, subspaces
from graphsplit._rng import SplitMix64

EPS = float(np.finfo(float).eps)


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


def choice(rng, seq):
    """An item of seq, drawn by one rng.randint call over its indices."""
    return seq[rng.randint(0, len(seq) - 1)]


def exact_rate(points):
    """The exact least-squares rate of a trace of (iteration, distance)
    points: the slope of the per-point math.log of the usable tail that
    `experiments._fit_rates` reads, taken in rational arithmetic, then exp;
    None for a tail of fewer than two points.

    With c = n k - sum(k), n times the centred iteration, the slope is
    n sum(c log d) / sum(c c); each log is a / 2^j, so the sums are taken in
    integers over the largest 2^j.
    """
    usable = [(k, dist) for k, dist in points if experiments.RATE_FLOOR < dist < math.inf]
    tail = usable[len(usable) // 2 :]
    if len(tail) < 2:
        return None
    n, total = len(tail), sum(k for k, _ in tail)
    cs = [n * k - total for k, _ in tail]
    logs = [math.log(dist).as_integer_ratio() for _, dist in tail]
    den = max(d for _, d in logs)
    num = sum(c * a * (den // d) for c, (a, d) in zip(cs, logs))
    return math.exp(n * num / (den * sum(c * c for c in cs)))


def assert_rate(got, want):
    """got is the rate want within 8 eps want (1 + |log want|), or both are None."""
    if want is None:
        assert got is None
    else:
        assert abs(got - want) <= 8 * EPS * want * (1.0 + abs(math.log(want))), (got, want)


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
        name = choice(rng, graphs.PRESETS)
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
