"""Convergence runs, relaxation sweeps, behavioral checks, and golden examples.

The experiments here drive a splitting operator (or any square matrix) as a
fixed-point iteration and measure what the theory predicts: the linear rate
as a function of the relaxation parameter, the symmetry of the iterate
norms about parameter 1, midpoint convexity for normal maps, strict norm
decrease, and the coordinate-subspace witnesses that separate graph pairs
with unequal graph and subgraph.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import graphs, matlin, splitting, subspaces
from ._json import check_count
from ._rng import SplitMix64

DEFAULT_EPS = 1e-6
DEFAULT_K_MAX = 10000
WITNESS_TOL = 1e-6
RATE_FLOOR = 1e-13


class ExcludedInputError(ValueError):
    """Start point lies in the subspace where strict decrease cannot hold."""


@dataclass
class ConvergenceTrace:
    theta: float
    points: list  # (iteration, distance to the limit point)
    k_stop: object  # int or None
    measured_rate: object  # float or None


def _fit_rates(traces):
    """The measured rate of each distance trace: exp of the least-squares
    slope of the log-distance against the iteration, over the last half of
    the usable trace (the finite distances above RATE_FLOOR), or None for a
    tail of fewer than two points.

    The slope is the closed form over centred iterations and centred logs,
    sum(x y) / sum(x x) with x = k - mean(k) and y = log d - mean(log d),
    np.log taken over the whole tail. Centring both keeps the rate within
    about one unit of eps r (1 + |log r|) of an exact rational fit of the
    per-point math.log, however far the distances lie from 1 and whatever
    gaps the tail has.
    """
    rates = []
    for dists in traces:
        usable = np.flatnonzero((dists > RATE_FLOOR) & (dists < math.inf))
        tail = usable[len(usable) // 2 :]
        if len(tail) < 2:
            rates.append(None)
            continue
        x = tail - tail.mean()
        logs = np.log(dists[tail])
        rates.append(float(np.exp((x @ (logs - logs.mean())) / (x @ x))))
    return rates


_BLOCK = 32  # interleaved chains of each run, a power of two: iterates per matmul and stop test
_TURN_BYTES = 2**24  # the most the powers and iterates of one loop take; more thetas run in turns


def _operands(op, x, op_name, x_name):
    """The map (an operator's T, or a matrix) and the start as float arrays;
    a ValueError names a map that is not a non-empty square matrix (with
    its shape as passed) or not finite, or a start that is not a vector of
    the map's size with a finite squared norm: an entry that is not finite
    fails that test, and so does a finite start such as 1e200, whose
    distances would all read inf."""
    t = op.T if isinstance(op, splitting.SplittingOperator) else np.asarray(op, dtype=float)
    x = np.asarray(x, dtype=float)
    if t.ndim != 2 or t.shape[0] != t.shape[1] or not t.size:
        raise ValueError(f"{op_name} of shape {t.shape} is not a non-empty square matrix")
    if not np.all(np.isfinite(t)):
        raise ValueError(f"{op_name} must be finite")
    with np.errstate(over="ignore"):
        if x.shape != t.shape[:1] or not math.isfinite(x @ x):
            raise ValueError(f"{x_name} must be a vector of length {len(t)} with a finite squared norm")
    return t, x


def _check_run(thetas, eps, k_max):
    """The checks of a run to a limit, which `converge`, `theta_sweep` and
    `monotonicity_check` make before the first step."""
    if not all(0.0 < theta < 2.0 for theta in thetas):
        raise ValueError("relaxation parameter must lie in (0, 2)")
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    check_count("k_max", k_max, 0)


def _relaxed_runs(t, thetas, e0, eps, k_max):
    """Iterate every relaxed map T_theta from e0 towards 0 in one loop: the
    one place that applies a relaxed map repeatedly.

    Each run is b interleaved chains, b = _BLOCK: iterate j + b is
    P = fl(T_theta^b) times iterate j, so one stacked matmul of the last b
    iterates of every running theta (rows of an (m, b, n) stack) by the
    transposed powers gives the next b. The first iterates and P come by
    doubling from T_theta = fl(T_theta^1): with iterates 0 .. c - 1 and
    fl(T_theta^c), one matmul gives the iterates c .. 2 c - 1, and then
    fl(T_theta^2c) = fl(fl(T_theta^c) fl(T_theta^c)). A power that is not
    finite, for any theta, halves b for every theta of the loop: the chains
    go on with the last finite power. A loop holds at most two powers and
    2 b iterates per theta, 16 n (n + b) bytes for a map of size n, so
    thetas past _TURN_BYTES run in turns of as many as fit (at least one),
    each turn a loop of its own.

    After each matmul one stacked dot product gives the squared norms of
    the new iterates, the stop test runs on them, and the thetas that
    stopped leave the stack, compacted in place (the iterates they computed
    past their stop are discarded). Iterate 0 is e0, tested on its own.
    Returns one (k_stop, dists) pair per theta: dists[k] is the norm of
    iterate k, up to k_stop, the first iterate with a norm below eps, or
    up to k_max with k_stop None when the budget runs out. No iterate past
    k_max, and no power past the last one a matmul needs, is computed. No
    input is checked: any theta runs (T_0 = I), and eps = 0 stops no run,
    so the dists are the iterate norms, even where one reaches exactly 0.

    With b = 1 each iterate is one matmul of the last, the stepwise loop.
    Otherwise iterate k is the product of fl(T_theta^c) and an earlier
    iterate, for powers c of two, which rounds in another order; every
    order keeps the iterate within a product bound of the exact
    T_theta^k e0 (Higham, Accuracy and Stability of Numerical Algorithms,
    3.5). As b does not depend on the thetas, a theta's dists are the same
    bits in any loop, alone or with others, unless a power of some theta
    of the loop is not finite, which halves b for all of them.
    """
    if not thetas:
        return []
    m, n = len(thetas), e0.shape[0]
    turn = max(1, _TURN_BYTES // (16 * n * (n + _BLOCK)))  # thetas whose two powers and blocks fit
    if m > turn:
        return [run for i in range(0, m, turn) for run in _relaxed_runs(t, thetas[i : i + turn], e0, eps, k_max)]
    power = np.stack([splitting.relax(t.T, theta) for theta in thetas])  # fl(T_theta^c), transposed
    ys = np.empty((m, 2 * _BLOCK, n))  # iterates as rows: the last c, then the next c
    ys[:, 0] = e0
    squares = np.empty((m, _BLOCK, 1, 1))  # the squared norms of the new iterates
    squares[:, 0] = e0 @ e0
    dists = np.empty((m, min(k_max + 1, 64)))  # grows by doubling
    k_stops = [None] * m
    active = np.arange(m)
    b, c = _BLOCK, 1  # the chains, and the power of T_theta that the next matmul applies
    new, k0, s = 0, 0, 1  # the rows new .. new + s - 1 of ys hold the iterates k0 .. k0 + s - 1
    while True:
        live = len(active)
        dist = np.sqrt(squares[:live, :s, 0, 0])
        while dists.shape[1] < k0 + s:
            dists = np.concatenate([dists, np.empty_like(dists)], axis=1)
        if live == m:
            dists[:, k0 : k0 + s] = dist
        else:
            dists[active, k0 : k0 + s] = dist
        below = dist < eps
        if below.any():
            first = below.argmax(axis=1)
            hit = below[np.arange(live), first]
            for i in np.flatnonzero(hit).tolist():
                k_stops[active[i]] = k0 + int(first[i])
            if hit.all():
                break
            keep = np.flatnonzero(~hit)
            for j, i in enumerate(keep.tolist()):  # j <= i, so no row is read after it is overwritten
                power[j] = power[i]
                ys[j] = ys[i]
            active = active[keep]
            live = len(active)
        k0 += s
        if k0 > k_max:
            break
        if c < min(k0, b):  # doubling: iterates 0 .. k0 - 1 are the last c = k0 after squaring
            with np.errstate(over="ignore", invalid="ignore"):
                square = np.matmul(power[:live], power[:live])
            if np.isfinite(square).all():
                power, c = square, 2 * c
            else:
                b = c
        lo = new + s - c  # the last c iterates, k0 - c .. k0 - 1
        new, s = (lo + c) % (2 * b), min(c, k_max + 1 - k0)
        rows = ys[:live, new : new + s]
        np.matmul(ys[:live, lo : lo + s], power[:live], out=rows)
        np.matmul(rows[..., None, :], rows[..., :, None], out=squares[:live, :s])
    return [(ks, dists[i, : (k_max if ks is None else ks) + 1]) for i, ks in enumerate(k_stops)]


def _error(f, v0):
    """The start of a run to the limit f f^T v0 (f an orthonormal basis of
    the fixed subspace): v0 less its projection on f, projected off f once
    more, since a projection leaves a part of about eps ||v0|| along f that
    no step shrinks ("twice is enough", Parlett, The Symmetric Eigenvalue
    Problem)."""
    e0 = v0 - f @ (f.T @ v0)
    return e0 - f @ (f.T @ e0)


def converge(op, theta, v0, eps=DEFAULT_EPS, k_max=DEFAULT_K_MAX):
    """Iterate the relaxed map and track the distance to the limit point.

    The limit is the projection of the start onto the fixed subspace of the
    unrelaxed map (relaxation does not move fixed points). k_stop is the
    first iteration whose distance drops below eps, or None if the budget
    runs out; the measured rate is exp of the least-squares slope of the
    log-distance over the last half of the usable trace (`_fit_rates`). The
    run iterates the error, from v0 less its part in the fixed subspace
    (`_error`), to 0, so its distances carry a round-off of the error's
    size, not of the limit's. It is the one-theta case of `_relaxed_runs`,
    _BLOCK interleaved chains with one matmul and one stop test per
    _BLOCK iterates, and gives the bits of the same theta's run in
    `theta_sweep`. Every input is checked before the first step.
    """
    t, v0 = _operands(op, v0, "op", "v0")
    _check_run([theta], eps, k_max)
    e0 = _error(splitting.spectral_report(t).fix_basis, v0)
    [(k_stop, dists)] = _relaxed_runs(t, [theta], e0, eps, k_max)
    [rate] = _fit_rates([dists])
    return ConvergenceTrace(theta, list(enumerate(dists.tolist())), k_stop, rate)


@dataclass
class SweepRecord:
    theta: float
    k_stop: object  # int or None
    rho1_predicted: float
    rho1_measured: object  # float or None


def theta_sweep(op, thetas, v0, eps=DEFAULT_EPS, k_max=DEFAULT_K_MAX):
    """One convergence run per relaxation parameter, from one analysis of T.

    T_theta has the eigenvalues theta lam + 1 - theta and the fixed subspace
    of T, so one `splitting.spectral_report` of T serves every theta; the
    sweep reads no defect of it. rho1 is read first, so that a failed
    self-check stops the sweep before its first step, and then the fixed
    basis (one factorization of T - I) for the start of the error
    (`_error`), which every run iterates to 0. The runs share one
    `_relaxed_runs` loop: one power T_theta^_BLOCK of each relaxed map,
    formed by squaring, and one stacked matmul per _BLOCK iterates of
    every running theta, with the stop test after it. Each run's rate is
    the closed-form slope of its own log-distance tail (`_fit_rates`).
    Every input is checked before the first step. The predicted rate is
    max |theta lam + 1 - theta| over the eigenvalues lam off 1, by
    `predicted_rate` for iso-averaged maps with rho1 < 1.
    """
    t, v0 = _operands(op, v0, "op", "v0")
    thetas = list(thetas)
    _check_run(thetas, eps, k_max)
    report = splitting.spectral_report(t)
    rho1 = report.rho1  # the spectrum and its self-checks, before the first step
    runs = _relaxed_runs(t, thetas, _error(report.fix_basis, v0), eps, k_max)
    rates = _fit_rates([dists for _, dists in runs])
    records = []
    for theta, (k_stop, _), rate in zip(thetas, runs, rates):
        if report.is_iso_averaged and rho1 < 1.0:
            predicted = splitting.predicted_rate(rho1, theta)
        else:
            relaxed = (theta * lam + (1.0 - theta) for lam in report.eigenvalues_off_one)
            predicted = max(map(abs, relaxed), default=0.0)
        records.append(SweepRecord(theta, k_stop, predicted, rate))
    return records


def _norms(t, thetas, x, k_max):
    """||T_theta^k x|| for k = 0 .. k_max, one row per theta."""
    runs = _relaxed_runs(t, thetas, x, 0.0, k_max)
    return np.array([dists for _, dists in runs])


def _finite_points(name, values, least):
    """values as a list of floats, or a ValueError naming them."""
    values = [float(v) for v in values]
    if len(values) < least or not all(map(math.isfinite, values)):
        raise ValueError(f"{name} must hold {least} or more values, all finite")
    return values


def symmetry_check(t, x, thetas, k_max):
    """Worst gap between iterate norms at parameters theta and 2 - theta.

    Vanishes (to round-off) exactly for iso-averaged maps: for one step,
    ||T_theta x||^2 - ||T_(2 - theta) x||^2 = 2 (theta - 1) x^T A x with
    A = 2 T^T T - T - T^T, whose spectral norm is the iso defect of
    `splitting.spectral_report`. Compares the iterates 1 .. k_max of every
    theta and its mirror, all in one `_relaxed_runs` run; the gap of an
    iso-averaged map is round-off, so its bits depend on the order in which
    the run rounds its iterates.
    """
    t, x = _operands(t, x, "t", "x")
    thetas = _finite_points("thetas", thetas, 1)
    check_count("k_max", k_max, 1)
    norms = _norms(t, thetas + [2.0 - theta for theta in thetas], x, k_max)
    return float(np.max(np.abs(norms[: len(thetas)] - norms[len(thetas) :])))


def convexity_check(t, x, k, grid, require_normal=True):
    """Worst midpoint-convexity gap of theta -> ||T_theta^k x|| on a grid.

    For each adjacent grid pair the midpoint value is compared against the
    endpoint average; a positive gap beyond round-off refutes convexity.
    Normality is required (it is what makes the function convex); pass
    require_normal=False to probe counterexamples. The grid points and the
    midpoints share one run.
    """
    t, x = _operands(t, x, "t", "x")
    grid = sorted(_finite_points("grid", grid, 2))
    check_count("k", k, 0)
    if require_normal:
        report = splitting.spectral_report(t)
        if not report.is_normal:
            raise ValueError(f"normality defect {report.normality_defect:.3e} is too large")
    mids = [0.5 * (lo + hi) for lo, hi in zip(grid, grid[1:])]
    f = _norms(t, grid + mids, x, k)[:, k]
    ends, mid = f[: len(grid)], f[len(grid) :]
    return float(np.max(mid - 0.5 * (ends[:-1] + ends[1:])))


# d <= 1e-12, the round-off floor of `monotonicity_check`, is d < _FLOOR.
_FLOOR = math.nextafter(1e-12, math.inf)


def monotonicity_check(op, theta, x, k_max=DEFAULT_K_MAX):
    """Whether the iterate norms decrease strictly until the round-off floor.

    Only meaningful for iso-averaged maps. The start must avoid the
    subspace where the sequence is constant: the fixed subspace for
    theta != 1, and its sum with the kernel for theta = 1. For such a map
    ||x_k||^2 = ||limit||^2 + ||x_k - limit||^2, so the norms decrease
    strictly exactly when the distances to the limit do; the distances
    are the ones read, since the norms stop changing at round-off near
    ||limit|| long before the distances reach the floor. One run of the
    error (`_error`) stops at the first iterate within 1e-12 of 0 (or at
    k_max); the distances up to that iterate must decrease strictly. The
    error carries a round-off of its own size, not of the limit's, so a
    large fixed part in x moves no verdict.
    """
    t, x = _operands(op, x, "op", "x")
    report = splitting.spectral_report(t)
    if not report.is_iso_averaged:
        raise ValueError("strict decrease is only guaranteed for iso-averaged maps")
    _check_run([theta], _FLOOR, k_max)
    f = report.fix_basis
    if theta == 1.0:
        excluded = matlin.column_space(np.hstack([f, matlin.null_space(t)]))
    else:
        excluded = f
    inside = excluded @ (excluded.T @ x)
    if float(np.linalg.norm(x - inside)) <= 1e-12 * (1.0 + float(np.linalg.norm(x))):
        raise ExcludedInputError("start lies in the excluded subspace")
    [(_, dists)] = _relaxed_runs(t, [theta], _error(f, x), _FLOOR, k_max)
    return bool(np.all(dists[1:] < dists[:-1]))


@dataclass(frozen=True)
class WitnessResult:
    """Outcome of `witness_search`, frozen since equal searches share one.

    defect is exact (the iso defect of the node's map) for a found witness,
    the only one printed; otherwise it is the largest node defect, each exact
    above the screen at WITNESS_TOL / 2 and the Frobenius bound below it.
    """

    found: bool
    index: object  # 1-based node index or None
    defect: float


def witness_search(graph_pair, d):
    """Look for a coordinate-product subspace that breaks iso-averagedness.

    Tries, for each node i, the product that is trivial everywhere except
    the full space at i; returns the first index whose defect exceeds the
    witness threshold. When the graph and subgraph coincide no witness
    exists and the maximal defect observed stays at round-off level.

    Each node's defect is screened at WITNESS_TOL: a node whose Frobenius
    bound 2 ||A||_F is at most WITNESS_TOL reports ||A||_F, at most
    WITNESS_TOL / 2, and takes no spectral norm; every other node, a found
    witness among them, reports the iso defect of its map's
    `splitting.spectral_report`, bit for bit.

    The result depends on nothing but the frozen graph pair and d, so a
    search runs once per (pair, d) (the last 256 are kept) and an equal
    call gets the same frozen record. d must be an integer of at least 1.
    """
    check_count("d", d, 1)
    # A plain function in front of the cache, since the span tracer of
    # perfbench/tracer.py wraps plain functions only; d goes positionally,
    # so d=3 and 3 share one entry.
    return _witness_search(graph_pair, int(d))


@functools.lru_cache(maxsize=256)
def _witness_search(graph_pair, d):
    n = graph_pair.g.n
    worst = 0.0
    for i in range(1, n + 1):
        op = splitting.build(graph_pair, subspaces.coordinate_product(n, i, d))
        iso = splitting.spectral_report(op.T).iso
        defect = iso.frobenius if iso.upper() <= WITNESS_TOL else iso.exact()
        if defect > WITNESS_TOL:
            return WitnessResult(True, i, defect)
        worst = max(worst, defect)
    return WitnessResult(False, None, worst)


# ---------------------------------------------------------------------------
# The randomized graph-pair check.

def with_extra_edge(gp, edge):
    """Pair a graph, as the subgraph, with itself plus one forward edge."""
    return graphs.pair(graphs.AlgorithmicGraph(gp.n, gp.edges + (edge,)), gp)


# The catalogue's families: each preset paired with itself, then three pairs
# "G/G'" with G != G'.
_FAMILIES = (*graphs.PRESETS, "parallel_down+edge/parallel_down", "biparallel/parallel_up",
             "ring/sequential")


def pair_catalog():
    """Named graph-pair builders, each taking the number of nodes (at least 3).

    The pairs are frozen, so a builder makes one pair per (family, n) (the
    last 256 are kept) and an equal call gets the same object, which the
    caches keyed on a pair (`splitting._lifts`, `witness_search`) then find
    by identity. n is checked before that cache is consulted.
    """
    return [(name, functools.partial(_catalog_pair, name)) for name in _FAMILIES]


def _catalog_pair(name, n):
    check_count("n", n, 3)
    return _family_pair(name, int(n))


@functools.lru_cache(maxsize=256)
def _family_pair(name, n):
    if name in graphs.PRESETS:
        return graphs.pair(graphs.preset(name, n))
    g, gp = name.split("/")
    if g == "parallel_down+edge":
        return with_extra_edge(graphs.preset(gp, n), (1, 2))
    return graphs.pair(graphs.preset(g, n), graphs.preset(gp, n))


@dataclass
class TrialRecord:
    """One trial of `graph_equality_trials`: its verdicts, as `verify` prints
    them. For G = G', consistent is the iso verdict of the built map's
    `splitting.spectral_report`; for G != G', whether `witness_search`
    found a witness, and at which node."""

    pair_name: str
    n: int
    d: int
    same: bool
    consistent: bool
    witness_index: object  # 1-based index or None


def graph_equality_trials(seed, trials):
    """Randomized consistency check of iso-averagedness against G = G'.

    For pairs with G = G', random subspaces must always yield an
    iso-averaged operator; for pairs with G != G', the coordinate-product
    witness search must succeed. Every trial is deterministic in the seed.
    """
    check_count("trials", trials, 1)
    rng = SplitMix64(seed)
    records = []
    for name, make in pair_catalog():
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
                iso_averaged = splitting.spectral_report(op.T).is_iso_averaged
                records.append(TrialRecord(name, n, d, True, iso_averaged, None))
            else:
                res = witness_search(gp, d)
                records.append(TrialRecord(name, n, d, False, res.found, res.index))
    return records


# ---------------------------------------------------------------------------
# Golden worked examples.

@dataclass(frozen=True)
class CheckLine:
    label: str
    measured: str
    expected: str
    passed: bool


@dataclass(frozen=True)
class DemoReport:
    name: str
    lines: tuple

    @property
    def passed(self):
        return all(line.passed for line in self.lines)


def _close(label, measured, expected, tol):
    ok = abs(measured - expected) <= tol
    return CheckLine(label, f"{measured:.12g}", f"{expected:.12g} (tol {tol:.1g})", ok)


def _bound(label, measured, relation, bound):
    ok = {"<=": measured <= bound, ">": measured > bound}[relation]
    return CheckLine(label, f"{measured:.12g}", f"{relation} {bound:.12g}", ok)


def _demo_not_normal():
    t = np.array([[0.0, 1.0], [0.0, 0.0]])
    x = np.array([0.0, 1.0])
    f0, f_half, f1 = _norms(t, [0.0, 0.5, 1.0], x, 2)[:, 2].tolist()
    target = math.sqrt(5.0) / 4.0
    normality = splitting.spectral_report(t).normality_defect
    lines = (
        _close("norm of squared relaxed iterate at 1/2", f_half, target, 1e-12),
        _bound("midpoint value vs endpoint average 1/2", f_half, ">", 0.5 * (f0 + f1)),
        _close("endpoint average", 0.5 * (f0 + f1), 0.5, 1e-12),
        _close("normality defect of the shift block", normality, 1.0, 1e-12),
        _close("convexity gap at the midpoint", f_half - 0.5, target - 0.5, 1e-12),
    )
    return DemoReport("not-normal", lines)


def _demo_relaxed_projector():
    t = np.diag([1.0, 0.0])
    # Eighth-steps keep 1 - theta and theta + (1 - theta) exact in binary.
    thetas = [i / 8.0 for i in range(0, 17)]
    worst_exact = 0.0
    worst_normal = 0.0
    iso = {}
    for theta in thetas:
        tt = splitting.relax(t, theta)
        worst_exact = max(worst_exact, float(np.max(np.abs(tt - np.diag([1.0, 1.0 - theta])))))
        report = splitting.spectral_report(tt)
        worst_normal = max(worst_normal, report.normality_defect)
        iso[theta] = report.iso_defect
    off_defects = [defect for theta, defect in iso.items() if theta not in (0.0, 1.0)]
    lines = (
        _close("worst deviation from diag(1, 1-theta)", worst_exact, 0.0, 0.0),
        _close("iso defect at theta = 0", iso[0.0], 0.0, 1e-12),
        _close("iso defect at theta = 1", iso[1.0], 0.0, 1e-12),
        _bound("smallest iso defect off {0, 1}", min(off_defects), ">", 1e-12),
        _close("worst normality defect over the grid", worst_normal, 0.0, 1e-12),
    )
    return DemoReport("relaxed-projector", lines)


def three_lines_example():
    """The three-lines configuration with its closed-form limit point.

    Three hyperplanes (lines) through the origin in the plane, the chain
    graph on three nodes with G = G', and the tree incidence matrix as the
    Laplacian factor, so the iteration matches the textbook three-step
    substitution system. Returns (op, v0, mu, limit).
    """
    a1 = np.array([-1.0, 6.0])
    a2 = np.array([-3.0, 1.0])
    a3 = np.array([-3.0, -4.0])
    v0 = np.array([1.0, -10.0, -8.0, 1.0])

    g = graphs.preset("sequential", 3)
    op = splitting.build(
        graphs.pair(g),
        subspaces.product([subspaces.hyperplane(a) for a in (a1, a2, a3)]),
        z=graphs.incidence(g),
    )

    def det2(u, v):
        return u[0] * v[1] - u[1] * v[0]

    mu = det2(a3, a2) / det2(a1, a2)
    w = np.concatenate([mu * a1, a3])
    coeff = (mu * (a1 @ v0[:2]) + a3 @ v0[2:]) / (mu * mu * (a1 @ a1) + a3 @ a3)
    return op, v0, mu, coeff * w


def _demo_geometric():
    op, v0, mu, limit = three_lines_example()
    f = splitting.spectral_report(op.T).fix_basis
    numeric_limit = f @ (f.T @ v0)

    [(_, dists)] = _relaxed_runs(op.T, [1.0], v0 - limit, 0.0, 5000)
    final_dist = float(dists[5000])

    thetas = [i / 5.0 for i in range(1, 10)]
    stops = {r.theta: r.k_stop for r in theta_sweep(op, thetas, v0)}

    (_, lo), (_, hi) = _relaxed_runs(op.T, [0.2, 1.8], _error(f, v0), 0.0, 200)
    sym = float(np.max(np.abs(lo - hi)))

    lines = (
        _close("line-mixing coefficient", mu, -15.0 / 17.0, 1e-12),
        _close("fixed-subspace dimension", float(f.shape[1]), 1.0, 0.0),
        _close("numeric limit vs closed form", float(np.linalg.norm(numeric_limit - limit)), 0.0, 1e-9),
        _bound("distance to closed-form limit after 5000 steps", final_dist, "<=", 1e-8),
        _bound("stop-iteration gap between 0.2 and 1.8", abs(stops[0.2] - stops[1.8]), "<=", 1.0),
        _bound("stop iterations at 1 vs grid best", float(stops[1.0]), "<=", float(min(stops.values()))),
        _bound("distance symmetry of 0.2 and 1.8 over 200 steps", sym, "<=", 1e-8),
    )
    return DemoReport("geometric", lines)


def parallel_down_extra_c(n):
    """Closed-form C for the star-to-last graph plus the edge (1, 2)."""
    m = n - 3
    c = np.zeros((n - 1, n - 1))
    c[0, 0] = 0.5 * m
    c[1, 0] = 0.5 * m
    c[1, 1] = 0.5 * (n - 1)
    c[0, 2:] = -1.0
    c[1, 2:] = -1.0
    c[2:, 0] = -1.0
    c[2:, 2:] = (n - 1) * np.eye(m) - np.ones((m, m))
    return c / (n - 1)


def _demo_parallel_down_extra():
    n, d = 4, 1
    gp = with_extra_edge(graphs.preset("parallel_down", n), (1, 2))
    spaces = subspaces.product([subspaces.full(d)] * n)
    z = graphs.incidence(gp.gp)
    op = splitting.build(gp, spaces, z=z)
    expected = matlin.kron_lift(parallel_down_extra_c(n), d)
    normality = splitting.spectral_report(op.T).normality_defect
    lines = (
        _close("deviation from the closed-form C", float(np.max(np.abs(op.C - expected))), 0.0, 1e-10),
        _bound("normality defect", normality, ">", 1e-3),
    )
    return DemoReport("parallel-down-extra", lines)


def malitsky_tam_c(n):
    """Closed-form C for the ring-over-chain pair with full node spaces."""
    c = 0.5 * np.eye(n - 1)
    for i in range(n - 2):
        c[i, i + 1] = -0.5
    c[n - 2, 0] = -0.5
    return c


def _demo_biparallel():
    n, d = 4, 1
    gp = graphs.pair(graphs.preset("biparallel", n), graphs.preset("parallel_up", n))
    spaces = subspaces.product([subspaces.full(d)] * n)
    op = splitting.build(gp, spaces, z=graphs.incidence(gp.gp))
    expected = matlin.kron_lift(np.diag([0.5] * (n - 2) + [0.0]), d)
    report = splitting.spectral_report(op.T)
    witness = witness_search(gp, d)
    lines = (
        _close("deviation from block-diagonal C", float(np.max(np.abs(op.C - expected))), 0.0, 1e-10),
        _bound("normality defect", report.normality_defect, "<=", 1e-9),
        _close("iso defect (eigenvalue 1/2 off the circle)", report.iso_defect, 0.5, 1e-9),
        _bound("coordinate-product witness defect", witness.defect, ">", WITNESS_TOL),
    )
    return DemoReport("biparallel", lines)


def _demo_malitsky_tam():
    n, d = 3, 1
    gp = graphs.pair(graphs.preset("ring", n), graphs.preset("sequential", n))
    spaces = subspaces.product([subspaces.full(d)] * n)
    op = splitting.build(gp, spaces, z=graphs.incidence(gp.gp))
    expected = matlin.kron_lift(malitsky_tam_c(n), d)
    iso = splitting.spectral_report(op.T).iso_defect
    witness = witness_search(gp, d)
    lines = (
        _close("deviation from the half-permutation C", float(np.max(np.abs(op.C - expected))), 0.0, 1e-10),
        _bound("iso defect with full node spaces", iso, "<=", 1e-9),
        _bound("witness defect for unequal graphs", witness.defect, ">", WITNESS_TOL),
    )
    return DemoReport("malitsky-tam", lines)


_DEMOS = {
    "not-normal": _demo_not_normal,
    "relaxed-projector": _demo_relaxed_projector,
    "geometric": _demo_geometric,
    "parallel-down-extra": _demo_parallel_down_extra,
    "biparallel": _demo_biparallel,
    "malitsky-tam": _demo_malitsky_tam,
}


def demo_names():
    return list(_DEMOS)


def run_demo(name):
    """Run one golden worked example and report its measured-vs-expected lines."""
    try:
        fn = _DEMOS[name]
    except KeyError:
        raise ValueError(f"unknown example {name!r}; available: {', '.join(_DEMOS)}") from None
    return fn()
