"""Byte-identity records of the benchmark ops for one source tree, their diff,
long double references for the sweep rates that differ, and 50-digit
references for the operators, the eigenvalues and the defects that differ.

A record holds, for every certify, tune and verify op of seeds 1 to 8 of
`perfbench/workloads.py` (loaded by path, read only; `record --seeds 9-16`
takes other seeds, for a run that a rule was not fitted on) and for `demo all`,
the exit code and the sha256 of its stdout and of its `--out` file, as
`regenerate.record` makes them. `diff` names every op whose record differs
between two source trees: it tells that printed bytes moved, not which
side is right. `rates` takes the tune ops that differ and, for each side,
compares the printed stop iterations and rates with a reference: the
same float T_theta of that side, iterated in `np.longdouble` from the
error e0 of the start (the start less its projection on that side's
fixed basis f, projected off f once more, in float, by that side's
`experiments._error`, as the sweep makes it) to 0 by `tests/relaxed_reference.py`, which the sweep tests share,
and its rate fitted as the sweep fits one, in long double.
The error, not the start less the limit, since a long double iteration
of the start carries a round-off of the limit's size that a 50-digit
mpmath run of the same float map does not have. From the repository
root, with a second checkout in OLD:

    python3 tests/golden/referee.py record OLD/src old.json
    python3 tests/golden/referee.py record src new.json
    python3 tests/golden/referee.py diff old.json new.json
    python3 tests/golden/referee.py rates old.json new.json
    python3 tests/golden/referee.py eigs old.json new.json
    python3 tests/golden/referee.py norms old.json new.json
    python3 tests/golden/referee.py build old.json new.json

`record` imports graphsplit from the given source tree, and runs the ops of
this checkout's workloads with it. `diff` prints one line per op that
differs and exits 1, or exits 0 when none does. `rates` runs each side in
a process of its own (`sweeps SRC LABEL...`, which prints the rows of the
named tune ops as JSON) and prints, for each side, over the rows with a
rate: the stop iterations that differ from the reference's, how many
printed 12-digit rates equal the reference's, and the median and 90th
percentile of |rate - reference| in units of eps r (1 + |log r|), r the
reference. It reports and decides nothing, and exits 0.

`eigs` takes the certify and tune ops that differ, the ops whose printed
figures rest on the eigenvalues of T: a certify op prints them and rho1, a
tune op prints a predicted rate for each theta. It rebuilds T with each
side's tree, in a process of its own (`spectra SRC LABEL...`), and takes the
eigenvalues and right eigenvectors of the reference T with `mpmath.eig` at
50 digits, or at 80 where it does not converge at 50. Where both sides
build the same float T bytes, the reference T is that float T; where they
differ, it is the T_ref of `build` below. The reference
eigenvalues fall into clusters: two groups join while they lie within
||T||_F (N eps)^(1/m) of each other, m the size of the joined group, the
distance by which a backward error of N eps ||T||_F can move the members
of an m-fold eigenvalue, while the mean of a cluster moves by at most
||P|| times the backward error, P its spectral projector (Kato; Stewart &
Sun). Each side's eigenvalues are matched to the reference by a greedy
nearest match, and `eigs` prints, for each side: how many printed 12-digit
figures (eigenvalue parts, rho1 and predicted rates, the side's values
to 12 digits as `cli._fmt` prints them, checked against its output) equal the
correctly rounded reference, rho1 and the rates by the side's own rule
from the reference eigenvalues; and the largest error and the 90th
percentile of the eigenvalues outside clusters and of the cluster means,
in units of N eps ||T||_F, the floor for a normal T, and of ||P|| N eps
||T||_F, the first-order bound for any T (||P|| is 1 for a normal T and
the condition number of a simple eigenvalue). A paired line counts, over
the ops both sides print, the figures that only the new side prints
correctly rounded and those that only the old side does, and the
eigenvalues and cluster means that the new side has closer to the
reference than the old side, and those it has farther.

A last line applies the pass rule of an eigenvalue kernel change, and
`eigs` exits 1 when it fails. The largest error and the 90th percentile
decide nothing: they can move with one ill-conditioned eigenvalue, and
most of the error is that of the Hessenberg reduction, which the kernels
under test share. The new side passes when
- it fails no op that the old side runs;
- each of its errors, outside clusters and of cluster means, is within N
  ||P|| N eps ||T||_F, the first-order bound of a backward error of N^2
  eps ||T||_F, the order of a sequence of Householder similarities
  (Higham, Accuracy and Stability of Numerical Algorithms, section 19.3);
- on each of the three paired counts, farther - closer <= 2 sqrt(closer +
  farther): a one-sided sign test that refuses a change no less accurate
  than the old side about once in 44 per count.

`norms` takes the certify and verify ops that differ, and `demo all`: the
ops that print a normality or iso defect of a report, as `analyze` does
and as some demos do. It runs each side in a process of its own (`defects
SRC LABEL...`) and keeps, for every report whose defects the op reads, the
bytes of its float T and the defects read. A defect is the spectral norm
of A = T^T T - T T^T or A = 2 T^T T - T - T^T. Its floor is
2 N eps (1 + ||T||_F^2), the first-order bound of the error of forming
either A in floating point (Higham, section 3.5). `norms` prints how many
defect figures moved, how many of those the new side prints as 0 and the
largest exact ||A||_F of them in units of the floor, the largest error of
the others in units of their bound, and the paired count over the moved
figures above the floor.

A last line applies the pass rule of a change that moves printed defects,
and `norms` exits 1 when it fails. For each op that differs:
- both sides exit alike, and build the same float T bytes for each report,
  unless the two sides' builds differ: the T of a report is then judged
  against the T_ref of `build` for the build that made it;
- every printed field other than the two defects (the other fields of an
  `analyze` report, each demo line less the measured figure of a normality
  or iso defect, every line of a `verify` summary) is byte-equal, but for
  the figures that `eigs` and the demo-line rule of `build` judge, where
  the two sides' builds differ;
- a defect that the new side prints as 0 passes only if the defect matrix
  A, formed exactly in rationals from the float T (or at 50 digits from
  T_ref), has ||A||_F at most 1.5 times the floor of that ||T||_F;
- any other defect of the new side that moved is within 1.5 floor +
  N^2 eps ||A||_2 of ||A||_2, the largest eigenvalue in modulus of that
  A by `mpmath.eigsy` at 50 digits: the error of forming A, and the
  first-order error of the norm of a Householder-reduced Gram matrix;
- over the moved figures above the floor on both sides (an exact ||A||_F
  above 1.5 floor, and neither side 0), farther - closer <=
  2 sqrt(closer + farther), the sign test of `eigs`. Figures under the
  floor are round-off on both sides, and take no sign test.

`build` takes every op that differs and judges the operators T that the
two sides build. It runs each side in a process of its own (`operators SRC
LABEL...`), keeps every operator an op builds, requires the same float
node bases U_i, the same update matrix B of G and the same factor Z on
both sides, and scores each side's T by ||T - T_ref||_F / (N eps
||T_ref||_F). T_ref is the exact map of the spans of the float bases:
with U the block-diagonal stack of the U_i, and B and Z taken as exact, it
is I - (U^T Zbar)^T Y for the solve (U^T Bbar U) Y = U^T Zbar at 50
digits. That holds whether or not U_i^T U_i = I holds exactly, so T_ref
models no build. `build` prints each side's largest and median error, the
paired count of the operators that the new side has closer to T_ref and
of those it has farther, and the moved demo lines. A last line applies the
pass rule of a change to the build, and `build` exits 1 when it fails. The
new side passes when
- every op exits as it does on the old side, so no op is lost;
- every error is at most N;
- farther - closer <= 2 sqrt(closer + farther), the sign test of `eigs`;
- no printed field moves that no rule judges: an `analyze` report keeps
  every field but its eigenvalues and rho1 (`eigs`) and its defects
  (`norms`), a sweep keeps its thetas (its figures go to `eigs` and
  `rates`), and every other line is byte-equal, but for a moved demo line
  whose label, tag and expected text are byte-equal and whose measured
  figure is a defect (`norms`) or is at most 1e-12 on both sides.
"""

import argparse
import csv
import functools
import importlib.util
import io
import itertools
import json
import math
import re
import subprocess
import sys
import tempfile
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))  # the tests directory, for the one long double reference
from relaxed_reference import long_double_norms  # noqa: E402
SEEDS = range(1, 9)
EIG_DIGITS = 50
EPS = float(np.finfo(float).eps)
DEFECTS = ("normality_defect", "iso_defect")
RETRY_DIGITS = 80  # for an mpmath.eig that does not converge at EIG_DIGITS
DEMO_LINE = re.compile(
    r"  \[(?P<tag>pass|FAIL)\] (?P<label>.*): measured (?P<measured>.*), expected (?P<expected>.*)"
)
DEMO_FLOOR = 1e-12  # a moved demo figure at most this on both sides is round-off


def load_regenerate(src):
    """`regenerate.py` beside this file, with graphsplit imported from src."""
    src = Path(src).resolve()
    sys.path.insert(0, str(src))
    spec = importlib.util.spec_from_file_location("referee_regenerate", HERE / "regenerate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    imported = Path(sys.modules["graphsplit"].__file__).resolve()
    if src not in imported.parents:
        raise SystemExit(f"graphsplit was imported from {imported}, not from {src}")
    return module


def ops(regenerate, seeds=SEEDS):
    """(label, op) for every op of a record of the seeds, in run order."""
    workloads = regenerate.load_workloads()
    listed = [
        (f"{name} seed {seed} op {index}", op)
        for seed in seeds
        for name, generator in workloads.GENERATORS.items()
        for index, op in enumerate(generator(seed))
    ]
    listed.append(("demo all", workloads.Op("demo", ("all",))))
    return listed


def run(regenerate, listed, src):
    """The record of the ops listed, run with graphsplit from src."""
    with tempfile.TemporaryDirectory() as tmp:
        records = {label: regenerate.record(op, Path(tmp)) for label, op in listed}
    return {"src": str(Path(src).resolve()), "environment": regenerate.environment(), "ops": records}


def differing(old, new):
    """Labels of the ops whose records differ, or that one record lacks."""
    labels = list(old["ops"]) + [label for label in new["ops"] if label not in old["ops"]]
    moved = [label for label in labels if old["ops"].get(label) != new["ops"].get(label)]
    return (["environment"] if old["environment"] != new["environment"] else []) + moved


def reference_run(t_thetas, e0, eps, k_max, floor):
    """(k_stop, rate) of each float map of the stack t_thetas, from its long
    double norms: k_stop is the first k whose norm is below eps, or None; the
    rate is exp of the centred slope of the log-norms over the last half of
    those above floor and finite, as the sweep fits it, or None for fewer than two."""
    rows = []
    for row in long_double_norms(t_thetas, e0, eps, k_max):
        below = np.flatnonzero(row < eps)
        k_stop = int(below[0]) if len(below) else None
        row = row[: (k_max if k_stop is None else k_stop) + 1]
        usable = np.flatnonzero((row > floor) & (row < np.inf))
        tail = usable[len(usable) // 2 :]
        if len(tail) < 2:
            rows.append((k_stop, None))
            continue
        ks = tail.astype(np.longdouble) - tail.mean(dtype=np.longdouble)
        logs = np.log(row[tail])
        rows.append((k_stop, float(np.exp((ks @ (logs - logs.mean())) / (ks @ ks)))))
    return rows


def sweep_rows(regenerate, op, workdir):
    """[printed k_stop, printed rate, reference k_stop, reference rate] for
    each theta of one tune op, run with the graphsplit that regenerate
    imported."""
    from graphsplit import cli, experiments, splitting

    out_path = workdir / "out.txt"
    regenerate.record(op, workdir)
    printed = list(csv.DictReader(io.StringIO(out_path.read_text(encoding="utf-8"))))
    config = cli.load_config(op.config)
    built = splitting.build(config.graph_pair, config.spaces)
    t, v0 = built.T, cli._start_vector(config, built)
    e0 = experiments._error(splitting.spectral_report(t).fix_basis, v0)
    t_thetas = np.stack([splitting.relax(t, theta) for theta in config.thetas])
    refs = reference_run(t_thetas, e0, config.eps, config.k_max, experiments.RATE_FLOOR)
    return [
        [int(row["k_stop"]) if row["k_stop"] else None, row["rho1_measured"] or None, k_stop, rate]
        for row, (k_stop, rate) in zip(printed, refs)
    ]


def rate_summary(rows):
    """The figures `rates` prints for one side's rows."""
    rated = [row for row in rows if row[1] is not None and row[3] is not None]
    eps = float(np.finfo(float).eps)
    errors = [abs(float(rate) - ref) / (eps * ref * (1.0 + abs(math.log(ref)))) for _, rate, _, ref in rated]
    return {
        "rows": len(rated),
        "k_stop_mismatches": sum(row[0] != row[2] for row in rows),
        "equal_rates": sum(rate == f"{ref:.12g}" for _, rate, _, ref in rated),
        "median_error": float(np.median(errors)) if errors else None,
        "p90_error": float(np.percentile(errors, 90)) if errors else None,
    }


def side_rows(command, src, labels):
    """label -> what `command` (`sweeps`, `spectra`, `defects` or
    `operators`) prints for each of the named ops, run in a process of its
    own with graphsplit from src."""
    done = subprocess.run(
        [sys.executable, __file__, command, str(src), *labels],
        check=True, capture_output=True, text=True,
    )
    return json.loads(done.stdout)


def build_inputs(built):
    """The float inputs and the T of one operator built by graphsplit: the
    hex bytes of T, and its factor Z, the update matrix B of its graph G
    and its node bases as lists."""
    from graphsplit import graphs

    return {
        "t": built.T.tobytes().hex(),
        "z": built.Z.tolist(),
        "b": graphs.matrices(built.graph_pair.g)[3].tolist(),
        "bases": [factor.basis.tolist() for factor in built.spaces.factors],
    }


def same_inputs(label, old_build, new_build):
    """The inputs of a build of the op label, checked to be the same float
    numbers on both sides."""
    if any(old_build[key] != new_build[key] for key in ("z", "b", "bases")):
        raise SystemExit(f"{label}: the two sides build from different float bases")
    return old_build


def reference_t(inputs):
    """T_ref of one build's inputs, as an mpmath matrix: with U the
    block-diagonal stack of the float node bases, and B and Z taken as
    exact, I - (U^T Zbar)^T Y for the solve (U^T Bbar U) Y = U^T Zbar at
    EIG_DIGITS digits, Bbar = B (x) I_d and Zbar = Z (x) I_d. Block (i, j)
    of U^T Bbar U is B_ij U_i^T U_j, and of U^T Zbar it is Z_ij U_i^T."""
    import mpmath

    b, z = inputs["b"], inputs["z"]
    bases = [np.array(basis, dtype=float).reshape(len(basis), -1) for basis in inputs["bases"]]
    d = bases[0].shape[0]
    size = len(z[0]) * d
    with mpmath.workdps(EIG_DIGITS):
        # One column of U per node basis vector: (node, its entries).
        columns = [
            (i, [mpmath.mpf(x) for x in u[:, c]]) for i, u in enumerate(bases) for c in range(u.shape[1])
        ]
        if not columns:
            return mpmath.eye(size)
        a = mpmath.matrix(
            [[b[i][j] * mpmath.fdot(x, y) if b[i][j] else 0 for j, y in columns] for i, x in columns]
        )
        r = mpmath.matrix([[z[i][j // d] * x[j % d] for j in range(size)] for i, x in columns])
        lu, pivots = mpmath.mp.LU_decomp(a)
        y = mpmath.matrix(len(columns), size)
        for j in range(size):
            y[:, j] = mpmath.mp.U_solve(lu, mpmath.mp.L_solve(lu, r[:, j], pivots))
        return mpmath.eye(size) - r.T * y


def t_error(t, t_ref):
    """||T - T_ref||_F / (N eps ||T_ref||_F), T the float matrix of the hex
    bytes t."""
    import mpmath

    matrix = _square(t)
    with mpmath.workdps(EIG_DIGITS):
        error = mpmath.mnorm(mpmath.matrix(matrix.tolist()) - t_ref, "f")
        return float(error / (len(matrix) * EPS * mpmath.mnorm(t_ref, "f")))


def spectrum_row(regenerate, op, workdir):
    """T and what one certify or tune op prints from its eigenvalues, run
    with the graphsplit that regenerate imported: the hex bytes of T and
    the inputs of its build, and, unless the op fails, the fix_dim and
    eigenvalues of its report, the iso verdict and the thetas of a tune op,
    each printed figure checked against the op's output."""
    from graphsplit import cli, splitting

    out_path = workdir / "out.txt"
    regenerate.record(op, workdir)
    config = cli.load_config(op.config)
    built = splitting.build(config.graph_pair, config.spaces)
    t = built.T
    row = {"t": t.tobytes().hex(), "build": build_inputs(built)}
    if not out_path.exists():
        return row
    report = splitting.spectral_report(t)
    text = out_path.read_text(encoding="utf-8")
    if op.command == "analyze":
        printed = json.loads(text)
        figures = sorted((cli._sig12(lam.real), cli._sig12(lam.imag)) for lam in report.eigenvalues)
        rho1 = cli._sig12(report.rho1)
        if [(e["re"], e["im"]) for e in printed["eigenvalues"]] != figures or printed["rho1"] != rho1:
            raise SystemExit(f"{op}: the printed eigenvalues are not those of the report of T")
    else:
        thetas = [float(theta) for theta in config.thetas]
        printed = [line["rho1_predicted"] for line in csv.DictReader(io.StringIO(text))]
        args = report.is_iso_averaged, report.eigenvalues_off_one, report.rho1
        if printed != [cli._fmt(predicted_rate(*args, theta, math.sqrt)) for theta in thetas]:
            raise SystemExit(f"{op}: the printed rates are not those of the report of T")
        row["thetas"] = thetas
    row["fix_dim"] = report.fix_dim
    row["iso"] = report.is_iso_averaged
    row["eigenvalues"] = [[lam.real, lam.imag] for lam in report.eigenvalues]
    return row


def off_one(eigenvalues, fix_dim):
    """(the eigenvalues less the fix_dim nearest 1, their largest modulus
    rho1), as `splitting.SpectralReport` takes them."""
    at_one = set(sorted(range(len(eigenvalues)), key=lambda i: abs(eigenvalues[i] - 1))[:fix_dim])
    rest = [lam for i, lam in enumerate(eigenvalues) if i not in at_one]
    return rest, max((abs(lam) for lam in rest), default=0)


def predicted_rate(iso, rest, rho1, theta, sqrt):
    """The rate a sweep predicts for theta from the eigenvalues rest off 1
    and rho1, by `experiments.theta_sweep`'s rule, with sqrt the square root
    of the arithmetic they are in."""
    if iso and rho1 < 1:
        return abs(sqrt(theta * (2 - theta) * rho1 * rho1 + (1 - theta) ** 2))
    return max((abs(theta * lam + (1 - theta)) for lam in rest), default=0)


def clusters(eigenvalues, scale):
    """Index groups of N eigenvalues, with scale ||T||_F: two groups join
    while they lie within scale (N eps)^(1/m) of each other, m the size of
    the joined group."""
    n = len(eigenvalues)
    eps = float(np.finfo(float).eps)
    points = [complex(lam) for lam in eigenvalues]
    groups = [[i] for i in range(n)]
    joined = True
    while joined:
        joined = False
        for a, b in itertools.combinations(range(len(groups)), 2):
            m = len(groups[a]) + len(groups[b])
            gap = min(abs(points[i] - points[j]) for i in groups[a] for j in groups[b])
            if gap <= scale * (n * eps) ** (1.0 / m):
                groups[a] += groups.pop(b)
                joined = True
                break
    return groups


def reference(t):
    """(eigenvalues, clusters, the norm ||P|| of each cluster's spectral
    projector, ||T||_F) of t, a float matrix or the mpmath matrix T_ref, by
    mpmath.eig at EIG_DIGITS digits, or at RETRY_DIGITS where that does not
    converge. P is the sum of x y^H over the cluster, x the right
    eigenvectors and y^H the rows of their inverse."""
    import mpmath

    if isinstance(t, np.ndarray):
        scale, t = float(np.linalg.norm(t)), t.tolist()
    else:
        scale = float(mpmath.mnorm(t, "f"))
    for digits in (EIG_DIGITS, RETRY_DIGITS):
        with mpmath.workdps(digits):
            try:
                eigenvalues, right = mpmath.eig(mpmath.matrix(t))
            except RuntimeError:  # "qr: failed to converge"
                if digits == RETRY_DIGITS:
                    raise
                continue
            left = np.array(mpmath.inverse(right).tolist(), dtype=object)
            right = np.array(right.tolist(), dtype=object)
            groups = clusters(eigenvalues, scale)
            norms = [float(np.linalg.norm((right[:, g] @ left[g, :]).astype(complex), 2)) for g in groups]
            return eigenvalues, groups, norms, scale


def rounded(x, scale):
    """x to 12 significant digits, rounded half-even from its decimal
    expansion, as a float; 0 below scale 10^(5 - EIG_DIGITS), under the
    resolution of the reference."""
    import mpmath

    if abs(x) <= scale * 10.0 ** (5 - EIG_DIGITS):
        return 0.0
    return float(f"{Decimal(mpmath.nstr(x, EIG_DIGITS - 5)):.12g}")


def matched(got, ref):
    """Index in got of the match of each reference eigenvalue: a greedy
    nearest match, the closest pair first."""
    pairs = sorted((abs(g - complex(r)), i, j) for i, g in enumerate(got) for j, r in enumerate(ref))
    match, used = {}, set()
    for _, i, j in pairs:
        if i not in used and j not in match:
            match[j] = i
            used.add(i)
    return [match[j] for j in range(len(ref))]


def spectrum_scores(row, reference):
    """(whether each printed figure equals the correctly rounded reference,
    errors outside clusters, errors of cluster means) of one side's row,
    against the `reference` of its T; each error as a pair, in units of N
    eps ||T||_F and of ||P|| N eps ||T||_F."""
    import mpmath

    ref, groups, norms, scale = reference
    got = [complex(re, im) for re, im in row["eigenvalues"]]
    got = [got[i] for i in matched(got, ref)]
    unit = len(ref) * float(np.finfo(float).eps) * scale
    rest, rho1 = off_one(got, row["fix_dim"])
    with mpmath.workdps(EIG_DIGITS):
        exact_rest, exact_rho1 = off_one(list(ref), row["fix_dim"])
        if "thetas" in row:
            pairs = [
                (predicted_rate(row["iso"], rest, rho1, theta, math.sqrt),
                 predicted_rate(row["iso"], exact_rest, exact_rho1, theta, mpmath.sqrt))
                for theta in row["thetas"]
            ]
        else:
            pairs = [(rho1, exact_rho1)]
            for lam, exact in zip(got, ref):
                pairs += [(lam.real, exact.real), (lam.imag, exact.imag)]
        hits = [float(f"{value:.12g}") == rounded(exact, scale) for value, exact in pairs]
        singles, means = [], []
        for group, norm in zip(groups, norms):
            error = float(abs(sum(got[j] - ref[j] for j in group))) / (len(group) * unit)
            (singles if len(group) == 1 else means).append((error, error / norm))
    return hits, singles, means


def spread(errors):
    """The largest and the 90th percentile of errors in both units, as text."""
    if not errors:
        return "none"
    plain, scaled = np.array(errors).T
    return (
        f"max {plain.max():.3g} and 90th percentile {np.percentile(plain, 90):.3g} N eps ||T||_F, "
        f"max {scaled.max():.3g} and 90th percentile {np.percentile(scaled, 90):.3g} ||P|| N eps ||T||_F"
    )


def sign_test(closer, farther):
    """Whether farther - closer <= 2 sqrt(closer + farther)."""
    return farther - closer <= 2.0 * math.sqrt(closer + farther)


def eigs(old, new, moved):
    """Print the `eigs` summary of the certify and tune ops in moved, and
    return whether the new side passes the rule."""
    labels = [label for label in moved if label.startswith(("certify ", "tune "))]
    print(f"{len(labels)} certify and tune ops differ")
    sides = {side: side_rows("spectra", rec["src"], labels) for side, rec in (("old", old), ("new", new))}
    references = {}
    for label in labels:
        old_row, new_row = sides["old"][label], sides["new"][label]
        if new_row["t"] == old_row["t"]:
            references[label] = reference(_square(old_row["t"]))
        else:
            references[label] = reference(reference_t(same_inputs(label, old_row["build"], new_row["build"])))
    scores = {}
    for side, rows in sides.items():
        scores[side] = {
            label: spectrum_scores(rows[label], references[label])
            for label in labels
            if "eigenvalues" in rows[label]
        }
        hits = [hit for figures, _, _ in scores[side].values() for hit in figures]
        singles = [error for _, single, _ in scores[side].values() for error in single]
        means = [error for _, _, mean in scores[side].values() for error in mean]
        print(
            f"{side}: {len(scores[side])} ops, {len(labels) - len(scores[side])} failed; "
            f"{sum(hits)} of {len(hits)} printed figures equal the reference's 12 digits; "
            f"{len(singles)} eigenvalues outside clusters, error {spread(singles)}; "
            f"{len(means)} cluster means, error {spread(means)}"
        )
    both = [label for label in scores["old"] if label in scores["new"]]
    counts, paired = [], []
    for kind, index in (("printed figures", 0), ("eigenvalues outside clusters", 1), ("cluster means", 2)):
        pairs = [
            (old_score, new_score)
            for label in both
            for old_score, new_score in zip(scores["old"][label][index], scores["new"][label][index])
        ]
        if index == 0:
            closer = sum(new_hit and not old_hit for old_hit, new_hit in pairs)
            farther = sum(old_hit and not new_hit for old_hit, new_hit in pairs)
        else:
            closer = sum(new_error[0] < old_error[0] for old_error, new_error in pairs)
            farther = sum(new_error[0] > old_error[0] for old_error, new_error in pairs)
        counts.append((kind, closer, farther))
        paired.append(f"closer on {closer} and farther on {farther} of {len(pairs)} {kind}")
    print(f"paired, new against old: {', '.join(paired)}")
    # The rule: see the module docstring.
    failures = []
    lost = [label for label in scores["old"] if label not in scores["new"]]
    if lost:
        failures.append(f"fails {len(lost)} ops that the old side runs")
    bounds = [
        (error[1] / len(references[label][0]), label)
        for label, (_, single, mean) in scores["new"].items()
        for error in single + mean
    ]
    worst, where = max(bounds, default=(0.0, None))
    if worst > 1.0:
        failures.append(f"{where} is {worst:.3g} times its bound")
    failures += [f"farther on {kind}" for kind, closer, farther in counts if not sign_test(closer, farther)]
    verdict = "fail: " + "; ".join(failures) if failures else "pass"
    print(f"rule: {verdict} (largest error {worst:.3g} of its bound N ||P|| N eps ||T||_F)")
    return not failures


def traced(regenerate, op, workdir):
    """(its row, the reports made) of one op, run with the graphsplit that
    regenerate imported. The row holds the op's command, exit code and
    output (None for none), and the `build_inputs` of each operator it
    builds."""
    from graphsplit import splitting

    built, reports = [], []
    build, report = splitting.build, splitting.spectral_report

    def keeping_build(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    def keeping_report(t):
        reports.append(report(t))
        return reports[-1]

    splitting.build, splitting.spectral_report = keeping_build, keeping_report
    try:
        code = regenerate.record(op, workdir)["exit"]
    finally:
        splitting.build, splitting.spectral_report = build, report
    out_path = workdir / "out.txt"
    text = out_path.read_text(encoding="utf-8") if out_path.exists() else None
    row = {"command": op.command, "exit": code, "text": text, "builds": [build_inputs(b) for b in built]}
    return row, reports


def operator_row(regenerate, op, workdir):
    """What one op prints and the operators it builds: the row of `traced`."""
    return traced(regenerate, op, workdir)[0]


def defect_row(regenerate, op, workdir):
    """What one op prints and the defects it rests on: the row of `traced`,
    and, for each report of the run whose defects were read, the hex bytes
    of its T and each defect read. The printed defects of an `analyze` op
    are checked against its report."""
    from graphsplit import cli

    row, reports = traced(regenerate, op, workdir)
    row["reports"] = []
    for report in reports:
        # A field of the report that was read is cached in its __dict__.
        read = {field: report.__dict__[field] for field in DEFECTS if field in report.__dict__}
        if read:
            row["reports"].append({"t": report._t.tobytes().hex(), **read})
    if op.command == "analyze" and row["text"] is not None:
        printed = json.loads(row["text"])
        [report] = row["reports"]
        if any(printed[field] != cli._sig12(report[field]) for field in DEFECTS):
            raise SystemExit(f"{op}: the printed defects are not those of the report of T")
    return row


def builds_moved(old, new):
    """Whether the operators that two rows of one op build differ."""
    return [build["t"] for build in old["builds"]] != [build["t"] for build in new["builds"]]


def moved_output(old, new, moved_builds):
    """(whether a printed field of one op moved that no rule judges, the
    measured figures of the moved demo lines that the demo-line rule
    passes), from the op's rows on the two sides. `norms` judges the
    defects. Where the builds moved, `eigs` judges the eigenvalues and rho1
    of an `analyze` report, `eigs` and `rates` the figures of a sweep, and
    the demo-line rule of `build` any other moved demo line."""
    if old["text"] is None or new["text"] is None:
        return old["text"] != new["text"], []
    if old["command"] == "analyze":
        judged = DEFECTS + (("eigenvalues", "rho1") if moved_builds else ())
        kept = [
            {key: value for key, value in json.loads(row["text"]).items() if key not in judged}
            for row in (old, new)
        ]
        return kept[0] != kept[1], []
    before, after = (row["text"].splitlines() for row in (old, new))
    if old["command"] == "sweep" and moved_builds:
        before, after = ([line.split(",")[0] for line in lines] for lines in (before, after))
    if len(before) != len(after):
        return True, []
    figures = []
    for lines in zip(before, after):
        if lines[0] == lines[1]:
            continue
        old_line, new_line = matches = [DEMO_LINE.fullmatch(line) for line in lines]
        if not all(matches) or any(old_line[key] != new_line[key] for key in ("tag", "label", "expected")):
            return True, figures
        if "normality defect" in old_line["label"] or "iso defect" in old_line["label"]:
            continue
        measured = max(abs(float(match["measured"])) for match in matches)
        if not moved_builds or measured > DEMO_FLOOR:
            return True, figures
        figures.append(measured)
    return False, figures


def _square(t):
    """The hex bytes t of a square float matrix, as that matrix."""
    matrix = np.frombuffer(bytes.fromhex(t), dtype=float)
    return matrix.reshape(math.isqrt(matrix.size), -1)


def _scaled(t):
    """(M, s): the float matrix t as s t = M, M a matrix of Python ints and s
    a power of two, so that products of M are exact."""
    ratios = [x.as_integer_ratio() for x in t.ravel().tolist()]
    scale = max(den for _, den in ratios)  # powers of two: each divides the largest
    entries = [num * (scale // den) for num, den in ratios]
    return np.array(entries, dtype=object).reshape(t.shape), scale


def exact_defects(t):
    """(field -> the defect matrix of field, formed exactly from the float
    matrix t, as a matrix of ints, and its ||A||_F^2 as a Fraction; the floor
    2 N eps (1 + ||T||_F^2) of the exact ||T||_F, as a Fraction). Each
    matrix of ints is s^2 A, s the scale of `_scaled`."""
    m, scale = _scaled(t)
    gram = m.T.dot(m)
    matrices = {"normality_defect": gram - m.dot(m.T), "iso_defect": 2 * gram - scale * (m + m.T)}

    def squared(a, power):
        return Fraction(sum(int(x) * int(x) for x in a.ravel()), scale**power)

    floor = 2 * t.shape[0] * Fraction(EPS) * (1 + squared(m, 2))
    return {field: (a, scale, squared(a, 4)) for field, a in matrices.items()}, floor


def reference_norm(a, scale=1):
    """||A||_2 of a symmetric defect matrix: A = a / scale^2 for a matrix a
    of ints, or A = a for an mpmath matrix a. Its largest eigenvalue in
    modulus, by mpmath.eigsy at EIG_DIGITS digits."""
    import mpmath

    with mpmath.workdps(EIG_DIGITS):
        if isinstance(a, np.ndarray):
            divisor = mpmath.mpf(scale) ** 2
            a = mpmath.matrix([[mpmath.mpf(int(x)) / divisor for x in row] for row in a.tolist()])
        return float(max(abs(lam) for lam in mpmath.eigsy(a, eigvals_only=True)))


def defect_references(label, old_report, new_report, old, new):
    """(field -> (||A||_F^2, a function of no arguments giving ||A||_2), the
    floor 2 N eps (1 + ||T||_F^2)) of the defect matrices A of the reference
    T of two reports of the op label: the float T, formed exactly, when
    both sides have its bytes, or else the T_ref of the build that made the
    T of each side, at EIG_DIGITS digits."""
    import mpmath

    if old_report["t"] == new_report["t"]:
        exact, floor = exact_defects(_square(new_report["t"]))
        return {
            field: (squared, functools.partial(reference_norm, a, scale))
            for field, (a, scale, squared) in exact.items()
        }, floor
    pairs = zip(old["builds"], new["builds"])
    made = [(b, c) for b, c in pairs if (b["t"], c["t"]) == (old_report["t"], new_report["t"])]
    if not made:
        raise SystemExit(f"{label}: the T of a report moved, and no build made it")
    t = reference_t(same_inputs(label, *made[0]))
    with mpmath.workdps(EIG_DIGITS):
        gram = t.T * t
        matrices = {"normality_defect": gram - t * t.T, "iso_defect": 2 * gram - t - t.T}
        floor = 2 * t.rows * mpmath.mpf(EPS) * (1 + mpmath.mnorm(t, "f") ** 2)
        return {
            field: (mpmath.mnorm(a, "f") ** 2, functools.partial(reference_norm, a))
            for field, a in matrices.items()
        }, floor


def judge_norms(labels, sides):
    """Print the `norms` summary of the labelled ops from each side's defect
    rows, and return whether the new side passes the rule."""
    failures = []
    moved = 0
    zeros, zero_worst = 0, 0.0  # moved figures printed as 0, and their largest exact ||A||_F / floor
    norms, norm_worst = 0, 0.0  # other moved figures, and their largest error / bound
    closer = farther = paired = 0
    for label in labels:
        old, new = sides["old"][label], sides["new"][label]
        if old["exit"] != new["exit"]:
            failures.append(f"{label} exits {new['exit']}, not {old['exit']}")
            continue
        moved_builds = builds_moved(old, new)
        same_t = [report["t"] for report in old["reports"]] == [report["t"] for report in new["reports"]]
        if not (same_t or moved_builds):
            raise SystemExit(f"{label}: the two sides build different float T")
        if moved_output(old, new, moved_builds)[0]:
            failures.append(f"{label} moves a field other than the defects")
        for old_report, new_report in zip(old["reports"], new["reports"]):
            if old_report.keys() != new_report.keys():
                failures.append(f"{label} reads other defects")
                continue
            fields = [field for field in DEFECTS if old_report.get(field) != new_report.get(field)]
            if not fields:
                continue
            size = len(_square(new_report["t"]))
            exact, floor = defect_references(label, old_report, new_report, old, new)
            for field in fields:
                moved += 1
                squared, reference_2 = exact[field]
                above = squared > (floor * 3 / 2) ** 2
                value, before = new_report[field], old_report[field]
                if value == 0.0:
                    zeros += 1
                    zero_worst = max(zero_worst, math.sqrt(squared / floor**2))
                    if above:
                        failures.append(f"{label} prints its {field} as 0 above 1.5 times the floor")
                    continue
                norms += 1
                ref = reference_2()
                error = abs(value - ref)
                norm_worst = max(norm_worst, error / (1.5 * float(floor) + size**2 * EPS * ref))
                if above and before != 0.0:
                    paired += 1
                    closer += error < abs(before - ref)
                    farther += error > abs(before - ref)
    print(f"{len(labels)} certify, verify and demo ops differ; {moved} defect figures moved")
    print(
        f"new: {zeros} moved figures print 0, exact ||A||_F at most {zero_worst:.3g} floor; "
        f"{norms} print a norm, error at most {norm_worst:.3g} of 1.5 floor + N^2 eps ||A||_2"
    )
    print(f"paired, new against old: closer on {closer} and farther on {farther} of {paired} figures above the floor")
    # The rule: see the module docstring.
    if norm_worst > 1.0:
        failures.append(f"a moved norm is {norm_worst:.3g} times its bound")
    if not sign_test(closer, farther):
        failures.append("farther on the figures above the floor")
    verdict = "fail: " + "; ".join(failures) if failures else "pass"
    print(f"rule: {verdict} (floor 2 N eps (1 + ||T||_F^2))")
    return not failures


def norms(old, new, moved):
    """Print the `norms` summary of the certify and verify ops in moved and
    of `demo all`, and return whether the new side passes the rule."""
    labels = [label for label in moved if label.startswith(("certify ", "verify ", "demo "))]
    sides = {side: side_rows("defects", rec["src"], labels) for side, rec in (("old", old), ("new", new))}
    return judge_norms(labels, sides)


def judge_build(labels, sides):
    """Print the `build` summary of the labelled ops from each side's
    operator rows, and return whether the new side passes the rule."""
    failures = []
    errors = {"old": [], "new": []}
    closer = farther = moved_t = 0
    worst, where = 0.0, None  # the largest error of the new side, in units of N, and its op
    figures = []
    for label in labels:
        old, new = sides["old"][label], sides["new"][label]
        if old["exit"] != new["exit"]:
            failures.append(f"{label} exits {new['exit']}, not {old['exit']}")
            continue
        if len(old["builds"]) != len(new["builds"]):
            failures.append(f"{label} builds {len(new['builds'])} operators, not {len(old['builds'])}")
            continue
        moved_builds = builds_moved(old, new)
        moved, passed = moved_output(old, new, moved_builds)
        if moved:
            failures.append(f"{label} moves a field that no rule judges")
        figures += passed
        for old_build, new_build in zip(old["builds"], new["builds"]):
            t_ref = reference_t(same_inputs(label, old_build, new_build))
            before, after = t_error(old_build["t"], t_ref), t_error(new_build["t"], t_ref)
            errors["old"].append(before)
            errors["new"].append(after)
            moved_t += old_build["t"] != new_build["t"]
            closer += after < before
            farther += after > before
            size = math.isqrt(len(new_build["t"]) // 16)  # N: 16 hex digits per float
            if after / size > worst:
                worst, where = after / size, label
    print(f"{len(labels)} ops differ; {len(errors['new'])} operators built, {moved_t} of them with other T bytes")
    for side, side_errors in errors.items():
        if side_errors:
            print(
                f"{side}: error max {max(side_errors):.3g} and median {np.median(side_errors):.3g} "
                "N eps ||T_ref||_F"
            )
        else:
            print(f"{side}: no operators")
    print(f"paired, new against old: closer on {closer} and farther on {farther} of {len(errors['new'])} operators")
    print(f"demo lines: {len(figures)} moved, measured at most {max(figures, default=0.0):.3g} on both sides")
    # The rule: see the module docstring.
    if worst > 1.0:
        failures.append(f"{where} is {worst:.3g} times its bound")
    if not sign_test(closer, farther):
        failures.append("farther on the operators")
    verdict = "fail: " + "; ".join(failures) if failures else "pass"
    print(f"rule: {verdict} (largest error {worst:.3g} of its bound N N eps ||T_ref||_F)")
    return not failures


def build(old, new, moved):
    """Print the `build` summary of the ops in moved, and return whether
    the new side passes the rule."""
    labels = [label for label in moved if label != "environment"]
    sides = {side: side_rows("operators", rec["src"], labels) for side, rec in (("old", old), ("new", new))}
    return judge_build(labels, sides)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    record = commands.add_parser("record", help="record every op with graphsplit from SRC")
    record.add_argument("src")
    record.add_argument("out")
    record.add_argument("--seeds", default="1-8", help="the seeds of the workloads, as FIRST-LAST")
    diff = commands.add_parser("diff", help="name every op whose records differ")
    diff.add_argument("old")
    diff.add_argument("new")
    rates = commands.add_parser("rates", help="references for the tune rates whose records differ")
    rates.add_argument("old")
    rates.add_argument("new")
    sweeps = commands.add_parser("sweeps", help="printed and reference rows of tune ops, as JSON")
    sweeps.add_argument("src")
    sweeps.add_argument("labels", nargs="*")
    eig = commands.add_parser("eigs", help="references for the eigenvalue figures whose records differ")
    eig.add_argument("old")
    eig.add_argument("new")
    spectra = commands.add_parser("spectra", help="T and eigenvalues of certify and tune ops, as JSON")
    spectra.add_argument("src")
    spectra.add_argument("labels", nargs="*")
    norm = commands.add_parser("norms", help="references for the defect figures whose records differ")
    norm.add_argument("old")
    norm.add_argument("new")
    defects = commands.add_parser("defects", help="output and defects of certify, verify and demo ops, as JSON")
    defects.add_argument("src")
    defects.add_argument("labels", nargs="*")
    judge = commands.add_parser("build", help="50-digit references for the operators of the ops whose records differ")
    judge.add_argument("old")
    judge.add_argument("new")
    operators = commands.add_parser("operators", help="output and built operators of any ops, as JSON")
    operators.add_argument("src")
    operators.add_argument("labels", nargs="*")
    args = parser.parse_args(argv)
    if args.command == "record":
        regenerate = load_regenerate(args.src)
        first, last = (int(seed) for seed in args.seeds.split("-"))
        result = run(regenerate, ops(regenerate, range(first, last + 1)), args.src)
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
        print(f"{args.out}: {len(result['ops'])} records of {result['src']}")
        return 0
    if args.command in ("sweeps", "spectra", "defects", "operators"):
        regenerate = load_regenerate(args.src)
        seeds = sorted({int(label.split()[2]) for label in args.labels if " seed " in label})
        listed = dict(ops(regenerate, seeds))
        row = {"sweeps": sweep_rows, "spectra": spectrum_row, "defects": defect_row, "operators": operator_row}[
            args.command
        ]
        with tempfile.TemporaryDirectory() as tmp:
            rows = {label: row(regenerate, listed[label], Path(tmp)) for label in args.labels}
        print(json.dumps(rows))
        return 0
    old, new = (json.loads(Path(p).read_text(encoding="utf-8")) for p in (args.old, args.new))
    moved = differing(old, new)
    if args.command == "eigs":
        return 0 if eigs(old, new, moved) else 1
    if args.command == "norms":
        return 0 if norms(old, new, moved) else 1
    if args.command == "build":
        return 0 if build(old, new, moved) else 1
    if args.command == "rates":
        labels = [label for label in moved if label.startswith("tune ")]
        print(f"{len(labels)} tune ops differ")
        for side, record in (("old", old), ("new", new)):
            by_op = side_rows("sweeps", record["src"], labels)
            rows = [row for op_rows in by_op.values() for row in op_rows]
            summary = rate_summary(rows)
            print(
                f"{side}: {summary['rows']} rows with a rate, "
                f"{summary['k_stop_mismatches']} k_stop mismatches, "
                f"{summary['equal_rates']} rates equal to the reference's 12 digits, "
                f"error median {summary['median_error']:.3g} and 90th percentile "
                f"{summary['p90_error']:.3g} eps r (1 + |log r|)"
                if summary["rows"]
                else f"{side}: no rows with a rate, {summary['k_stop_mismatches']} k_stop mismatches"
            )
        return 0
    for label in moved:
        print(f"differs: {label}")
    # The environment is one more record: digests made under another numpy
    # or platform do not compare.
    print(f"{len(moved)} of {len(set(old['ops']) | set(new['ops'])) + 1} records differ")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
