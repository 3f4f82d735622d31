"""Byte-identity records of the benchmark ops for one source tree, their diff,
long double references for the sweep rates that differ and 50-digit
references for the eigenvalues that differ.

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
side's tree, in a process of its own (`spectra SRC LABEL...`), requires the
same float T bytes on both sides, and takes the eigenvalues and right
eigenvectors of that T with `mpmath.eig` at 50 digits. The reference
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
"""

import argparse
import csv
import importlib.util
import io
import itertools
import json
import math
import subprocess
import sys
import tempfile
from decimal import Decimal
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))  # the tests directory, for the one long double reference
from relaxed_reference import long_double_norms  # noqa: E402
SEEDS = range(1, 9)
EIG_DIGITS = 50


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
    """label -> what `command` (`sweeps` or `spectra`) prints for each of the
    named ops, run in a process of its own with graphsplit from src."""
    done = subprocess.run(
        [sys.executable, __file__, command, str(src), *labels],
        check=True, capture_output=True, text=True,
    )
    return json.loads(done.stdout)


def spectrum_row(regenerate, op, workdir):
    """T and what one certify or tune op prints from its eigenvalues, run
    with the graphsplit that regenerate imported: the hex bytes of T, and,
    unless the op fails, the fix_dim and eigenvalues of its report, the
    iso verdict and the thetas of a tune op, each printed figure checked
    against the op's output."""
    from graphsplit import cli, splitting

    out_path = workdir / "out.txt"
    regenerate.record(op, workdir)
    config = cli.load_config(op.config)
    t = splitting.build(config.graph_pair, config.spaces).T
    row = {"t": t.tobytes().hex()}
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
    projector, ||T||_F) of the float matrix t, by mpmath.eig at EIG_DIGITS
    digits. P is the sum of x y^H over the cluster, x the right eigenvectors
    and y^H the rows of their inverse."""
    import mpmath

    scale = float(np.linalg.norm(t))
    with mpmath.workdps(EIG_DIGITS):
        eigenvalues, right = mpmath.eig(mpmath.matrix(t.tolist()))
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
        t = sides["old"][label]["t"]
        if sides["new"][label]["t"] != t:
            raise SystemExit(f"{label}: the two sides build different float T")
        matrix = np.frombuffer(bytes.fromhex(t), dtype=float)
        references[label] = reference(matrix.reshape(math.isqrt(matrix.size), -1))
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
    args = parser.parse_args(argv)
    if args.command == "record":
        regenerate = load_regenerate(args.src)
        first, last = (int(seed) for seed in args.seeds.split("-"))
        result = run(regenerate, ops(regenerate, range(first, last + 1)), args.src)
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
        print(f"{args.out}: {len(result['ops'])} records of {result['src']}")
        return 0
    if args.command in ("sweeps", "spectra"):
        regenerate = load_regenerate(args.src)
        seeds = sorted({int(label.split()[2]) for label in args.labels if " seed " in label})
        listed = dict(ops(regenerate, seeds))
        row = sweep_rows if args.command == "sweeps" else spectrum_row
        with tempfile.TemporaryDirectory() as tmp:
            rows = {label: row(regenerate, listed[label], Path(tmp)) for label in args.labels}
        print(json.dumps(rows))
        return 0
    old, new = (json.loads(Path(p).read_text(encoding="utf-8")) for p in (args.old, args.new))
    moved = differing(old, new)
    if args.command == "eigs":
        return 0 if eigs(old, new, moved) else 1
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
