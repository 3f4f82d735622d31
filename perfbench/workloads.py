"""Seeded workload generators for the graphsplit benchmark.

Each generator is a pure function of the workload seed and returns the ops
of one pass: one op is one `graphsplit.cli.main` call. Ops that read a
config carry it as a dict; the runner writes it to a file before timing.

The seed picks the details of every input (node spaces, directions,
command seeds, order); the size grid of `certify` and `tune` is fixed, so
that two seeds put the same amount of work in a pass.
"""

import random
from dataclasses import dataclass

PRESETS = ("sequential", "ring", "parallel_up", "parallel_down", "biparallel", "complete")
UNEQUAL_PAIRS = (("ring", "sequential"), ("biparallel", "parallel_up"))
DEMOS = (
    "not-normal",
    "relaxed-projector",
    "geometric",
    "parallel-down-extra",
    "biparallel",
    "malitsky-tam",
)

# certify: every (n, d) cell of the size grid, CERTIFY_PER_CELL times per pass.
CERTIFY_N = range(3, 7)
CERTIFY_D = range(2, 7)
CERTIFY_PER_CELL = 5

# tune: (n, d) cells with G = G' (every n and every d twice), and cells
# with G != G' (n <= 4, d <= 3), so three configs in four have G = G'; each
# cell TUNE_PER_CELL times per pass.
TUNE_EQUAL_CELLS = ((3, 2), (3, 3), (4, 3), (4, 4), (5, 2), (5, 4))
TUNE_UNEQUAL_CELLS = ((3, 2), (4, 3))
# Spread of the hyperplane normals around their common direction, per
# ambient dimension; small spreads give a subdominant radius close to 1.
TUNE_SPREAD = {2: 0.09, 3: 0.18, 4: 0.27}
TUNE_THETAS = {"start": 0.1, "stop": 1.9, "step": 0.1}
TUNE_EPS = 1e-10
TUNE_K_MAX = 2500
TUNE_PER_CELL = 2

VERIFY_COMMANDS = 240
VERIFY_TRIALS = 1


@dataclass(frozen=True)
class Op:
    """One CLI call: `command` plus `args`, and the config it reads, if any."""

    command: str
    args: tuple = ()
    config: object = None  # dict for analyze and sweep

    def argv(self, config_path, out_path):
        argv = [self.command, *self.args]
        if self.config is not None:
            argv += ["--config", config_path]
        return argv + ["--out", out_path]


def _graph_pair(g, gp, n):
    return {"graph": {"preset": g, "n": n}, "subgraph": {"preset": gp, "n": n}}


def certify_ops(seed):
    """`analyze` over the certify size grid with random node spaces."""
    rng = random.Random(seed)
    cells = [(n, d) for n in CERTIFY_N for d in CERTIFY_D] * CERTIFY_PER_CELL
    pairs = [(p, p) for p in PRESETS] + list(UNEQUAL_PAIRS)
    ops = []
    # Pairs cycle over the grid, so each pair meets a spread of sizes and
    # every seed gives the same pair to the same cell.
    for index, (n, d) in enumerate(cells):
        g, gp = pairs[index % len(pairs)]
        spaces = [
            {"kind": "random", "dim": rng.randint(1, d - 1), "seed": rng.randrange(1, 2**32)}
            for _ in range(n)
        ]
        ops.append(Op("analyze", config={**_graph_pair(g, gp, n), "ambient": d, "spaces": spaces}))
    rng.shuffle(ops)
    return ops


def _slow_hyperplanes(rng, n, d):
    base = [rng.gauss(0.0, 1.0) for _ in range(d)]
    norm = sum(x * x for x in base) ** 0.5
    spread = TUNE_SPREAD[d]
    return [
        {"kind": "hyperplane", "normal": [x / norm + spread * rng.gauss(0.0, 1.0) for x in base]}
        for _ in range(n)
    ]


def tune_ops(seed):
    """`sweep` over nearly parallel hyperplanes, which converge slowly."""
    rng = random.Random(seed)
    # The six presets with G = G' go to the equal cells and the unequal pairs
    # to the unequal cells, the same for every seed, so that two seeds put
    # the same kind of work in a pass; the seed picks the spaces.
    cells = list(zip(TUNE_EQUAL_CELLS, ((p, p) for p in PRESETS)))
    cells += list(zip(TUNE_UNEQUAL_CELLS, UNEQUAL_PAIRS))
    ops = []
    for (n, d), (g, gp) in cells * TUNE_PER_CELL:
        config = {
            **_graph_pair(g, gp, n),
            "ambient": d,
            "spaces": _slow_hyperplanes(rng, n, d),
            "thetas": dict(TUNE_THETAS),
            "eps": TUNE_EPS,
            "k_max": TUNE_K_MAX,
            "seed": rng.randrange(1, 2**32),
            "v0": "random",
        }
        ops.append(Op("sweep", config=config))
    rng.shuffle(ops)
    return ops


def verify_ops(seed):
    """Many one-trial `verify` commands, then every golden demo once."""
    rng = random.Random(seed)
    ops = [
        Op("verify", ("--seed", str(rng.randrange(1, 2**31)), "--trials", str(VERIFY_TRIALS)))
        for _ in range(VERIFY_COMMANDS)
    ]
    return ops + [Op("demo", (name,)) for name in DEMOS]


GENERATORS = {"certify": certify_ops, "tune": tune_ops, "verify": verify_ops}
