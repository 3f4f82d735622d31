"""Byte-identity records of the benchmark ops for one source tree, their diff,
and long double references for the sweep rates that differ.

A record holds, for every certify, tune and verify op of seeds 1 to 8 of
`perfbench/workloads.py` (loaded by path, read only) and for `demo all`,
the exit code and the sha256 of its stdout and of its `--out` file, as
`regenerate.record` makes them. `diff` names every op whose record differs
between two source trees: it tells that printed bytes moved, not which
side is right. `rates` takes the tune ops that differ and, for each side,
compares the printed stop iterations and rates with a reference: the
same float T_theta of that side, iterated in `np.longdouble` from the
error e0 of the start (the start less its projection on that side's
fixed basis f, projected off f once more, in float, as the sweep makes
it) to 0, and its rate fitted as the sweep fits one, in long double.
The error, not the start less the limit, since a long double iteration
of the start carries a round-off of the limit's size that a 50-digit
mpmath run of the same float map does not have. From the repository
root, with a second checkout in OLD:

    python3 tests/golden/referee.py record OLD/src old.json
    python3 tests/golden/referee.py record src new.json
    python3 tests/golden/referee.py diff old.json new.json
    python3 tests/golden/referee.py rates old.json new.json

`record` imports graphsplit from the given source tree, and runs the ops of
this checkout's workloads with it. `diff` prints one line per op that
differs and exits 1, or exits 0 when none does. `rates` runs each side in
a process of its own (`sweeps SRC LABEL...`, which prints the rows of the
named tune ops as JSON) and prints, for each side, over the rows with a
rate: the stop iterations that differ from the reference's, how many
printed 12-digit rates equal the reference's, and the median and 90th
percentile of |rate - reference| in units of eps r (1 + |log r|), r the
reference. It reports and decides nothing, and exits 0.
"""

import argparse
import csv
import importlib.util
import io
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SEEDS = range(1, 9)


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


def ops(regenerate):
    """(label, op) for every op of a record, in run order."""
    workloads = regenerate.load_workloads()
    listed = [
        (f"{name} seed {seed} op {index}", op)
        for seed in SEEDS
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
    """(k_stop, rate) of each relaxed map of t_thetas, a stack of float
    matrices, iterated stepwise from e0 in long double: k_stop is the first
    iterate with a norm below eps, or None; the rate is exp of the slope,
    centred as the sweep centres it, of the log-norms over the last half
    of the norms above floor and finite, or None for fewer than two."""
    t_long = t_thetas.astype(np.longdouble)
    x = np.tile(e0.astype(np.longdouble), (len(t_long), 1))[..., None]
    dists = np.empty((len(t_long), k_max + 1), dtype=np.longdouble)
    k_stops = [None] * len(t_long)
    for k in range(k_max + 1):
        dists[:, k] = np.sqrt(np.sum(x[..., 0] * x[..., 0], axis=1))
        for i in np.flatnonzero(dists[:, k] < eps).tolist():
            if k_stops[i] is None:
                k_stops[i] = k
        if None not in k_stops:
            break
        x = t_long @ x
    rows = []
    for row, k_stop in zip(dists, k_stops):
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
    f = splitting.sweep_analysis(t).fix_basis
    e0 = v0 - f @ (f.T @ v0)
    e0 = e0 - f @ (f.T @ e0)
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


def side_rows(src, labels):
    """label -> rows of the named tune ops, run in a process of its own
    with graphsplit from src."""
    done = subprocess.run(
        [sys.executable, __file__, "sweeps", str(src), *labels],
        check=True, capture_output=True, text=True,
    )
    return json.loads(done.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    record = commands.add_parser("record", help="record every op with graphsplit from SRC")
    record.add_argument("src")
    record.add_argument("out")
    diff = commands.add_parser("diff", help="name every op whose records differ")
    diff.add_argument("old")
    diff.add_argument("new")
    rates = commands.add_parser("rates", help="references for the tune rates whose records differ")
    rates.add_argument("old")
    rates.add_argument("new")
    sweeps = commands.add_parser("sweeps", help="printed and reference rows of tune ops, as JSON")
    sweeps.add_argument("src")
    sweeps.add_argument("labels", nargs="*")
    args = parser.parse_args(argv)
    if args.command == "record":
        regenerate = load_regenerate(args.src)
        result = run(regenerate, ops(regenerate), args.src)
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
        print(f"{args.out}: {len(result['ops'])} records of {result['src']}")
        return 0
    if args.command == "sweeps":
        regenerate = load_regenerate(args.src)
        listed = dict(ops(regenerate))
        with tempfile.TemporaryDirectory() as tmp:
            rows = {label: sweep_rows(regenerate, listed[label], Path(tmp)) for label in args.labels}
        print(json.dumps(rows))
        return 0
    old, new = (json.loads(Path(p).read_text(encoding="utf-8")) for p in (args.old, args.new))
    moved = differing(old, new)
    if args.command == "rates":
        labels = [label for label in moved if label.startswith("tune ")]
        print(f"{len(labels)} tune ops differ")
        for side, record in (("old", old), ("new", new)):
            rows = [row for op_rows in side_rows(record["src"], labels).values() for row in op_rows]
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
