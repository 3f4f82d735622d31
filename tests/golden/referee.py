"""Byte-identity records of the benchmark ops for one source tree, and their diff.

A record holds, for every certify, tune and verify op of seeds 1 to 8 of
`perfbench/workloads.py` (loaded by path, read only) and for `demo all`,
the exit code and the sha256 of its stdout and of its `--out` file, as
`regenerate.record` makes them. `diff` names every op whose record differs
between two source trees: it tells that printed bytes moved, not which
side is right. From the repository root, with a second checkout in OLD:

    python3 tests/golden/referee.py record OLD/src old.json
    python3 tests/golden/referee.py record src new.json
    python3 tests/golden/referee.py diff old.json new.json

`record` imports graphsplit from the given source tree, and runs the ops of
this checkout's workloads with it. `diff` prints one line per op that
differs and exits 1, or exits 0 when none does.
"""

import argparse
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    record = commands.add_parser("record", help="record every op with graphsplit from SRC")
    record.add_argument("src")
    record.add_argument("out")
    diff = commands.add_parser("diff", help="name every op whose records differ")
    diff.add_argument("old")
    diff.add_argument("new")
    args = parser.parse_args(argv)
    if args.command == "record":
        regenerate = load_regenerate(args.src)
        result = run(regenerate, ops(regenerate), args.src)
        Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
        print(f"{args.out}: {len(result['ops'])} records of {result['src']}")
        return 0
    old, new = (json.loads(Path(p).read_text(encoding="utf-8")) for p in (args.old, args.new))
    moved = differing(old, new)
    for label in moved:
        print(f"differs: {label}")
    # The environment is one more record: digests made under another numpy
    # or platform do not compare.
    print(f"{len(moved)} of {len(set(old['ops']) | set(new['ops'])) + 1} records differ")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
