"""The one long double reference of the relaxed runs, and its bound, which
the sweep tests and `tests/golden/referee.py` share. It imports numpy only,
since the referee imports graphsplit from a source tree it is given."""

import numpy as np

LONG = np.longdouble
EPS = float(np.finfo(float).eps)
EPS_LONG = float(np.finfo(LONG).eps)
_CHUNK = 64  # steps per stop test of the long double iteration


def long_double_norms(t_thetas, e0, eps, k_max):
    """||T^k e0|| for each float map T of t_thetas, an (m, n, n) stack,
    iterated stepwise from e0 in long double, k = 0 .. k_max, one row per
    map, with one batched (m, n, n) @ (m, n, 1) product per step. The
    norms of each _CHUNK iterates are taken, and the stop tested, at once:
    the iteration stops early, and the rows end, at the first k at which
    every row has had a norm below eps (eps = 0 stops none)."""
    t_long = t_thetas.astype(LONG)
    x = np.tile(e0.astype(LONG), (len(t_long), 1))[..., None]
    norms = np.empty((len(t_long), k_max + 1), dtype=LONG)
    for k0 in range(0, k_max + 1, _CHUNK):
        xs = np.empty((min(_CHUNK, k_max + 1 - k0), *x.shape), dtype=LONG)
        for j in range(len(xs)):
            xs[j], x = x, t_long @ x
        norms[:, k0 : k0 + len(xs)] = np.sqrt(np.sum(xs[..., 0] * xs[..., 0], axis=2)).T
        below = norms[:, : k0 + len(xs)] < eps
        if below.any(axis=1).all():
            return norms[:, : below.argmax(axis=1).max() + 1]
    return norms


def _gamma(n, u):
    return n * u / (1.0 - n * u)


def _norm2(stack):
    """The 2-norm of each matrix of a stack."""
    return np.linalg.norm(stack, 2, axis=(1, 2))


def norm_bounds(t_thetas, norms, b):
    """For each map of t_thetas and each k, a bound on how far the norm of
    iterate k of a float run with b chains may lie from norms[:, k], the
    long double norms of `long_double_norms`. The b chains compute iterate
    k from iterate k - c with the power P_c, for c = min(b, 2^floor(log2 k)),
    where P_1 = T and P_2c = fl(P_c P_c) (with b = 1 the run is the stepwise
    loop).

    The bound is fixed before any run is compared with it. It rests on
    |fl(AB) - AB| <= gamma_n |A| |B| (Higham, Accuracy and Stability of
    Numerical Algorithms, 3.5). With e_c a bound on ||P_c - T^c|| (e_1 = 0),
    P_c P_c - T^2c = (P_c - T^c) P_c + T^c (P_c - T^c) gives
    e_2c = gamma_n || |P_c| |P_c| || + e_c (2 ||P_c|| + e_c). So fl(P_c y)
    lies within a_c ||y|| of T^c y, with a_c = e_c + gamma_n || |P_c| ||,
    and an error of y is carried on by ||T^c|| <= min(||T||^c, ||P_c|| + e_c).
    The long double run has the bound of b = 1 at its own unit roundoff,
    and a norm computed from an iterate (a dot product or a sum of squares,
    and a square root) lies within gamma_(n+1) of the iterate's own norm.
    The norms of the bound are 2-norms taken in float.
    """
    n, k_max = t_thetas.shape[1], norms.shape[1] - 1
    g, g_long = _gamma(n, EPS / 2), _gamma(n, EPS_LONG / 2)
    gd, gd_long = _gamma(n + 1, EPS / 2), _gamma(n + 1, EPS_LONG / 2)
    t_norm, abs_norm = _norm2(t_thetas), _norm2(np.abs(t_thetas))
    a, carry, power, e, c = {}, {}, t_thetas, 0.0, 1
    p_norm, p_abs = t_norm, abs_norm
    while True:
        a[c] = e + g * p_abs
        carry[c] = np.minimum(t_norm**c, p_norm + e)
        if c >= min(b, k_max):
            break
        e = g * _norm2(np.abs(power) @ np.abs(power)) + e * (2.0 * p_norm + e)
        power, c = power @ power, 2 * c
        p_norm, p_abs = _norm2(power), _norm2(np.abs(power))
    floats = norms.astype(float) * (1.0 + EPS)  # at least the long double iterates' norms
    err, err_long = np.zeros(floats.shape), np.zeros(floats.shape)
    for k in range(1, k_max + 1):
        c = min(b, 1 << (k.bit_length() - 1))
        err_long[:, k] = g_long * abs_norm * floats[:, k - 1] + t_norm * err_long[:, k - 1]
        err[:, k] = a[c] * (floats[:, k - c] + err_long[:, k - c] + err[:, k - c]) + carry[c] * err[:, k - c]
    own = norms / (1.0 - gd_long)  # at least the long double iterates' own norms
    exact = own + err_long
    return err + err_long + gd * (exact + err) + gd_long * own
