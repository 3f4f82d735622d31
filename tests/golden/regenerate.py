"""Digests of every golden command-line output, and the script that records them.

The golden ops are every op of the seed-1 `certify`, `tune` and `verify`
generators of `perfbench/workloads.py` (loaded by path, read only), plus
`demo all` and `verify --seed 1 --trials 20`. Each runs through
`graphsplit.cli.main` with its config and `--out` file in a scratch
directory; its record is the exit code and the sha256 of its stdout and
of its `--out` file. Each `demos/0*.py` script is recorded too: it runs
in-process as `__main__`, and its record is its exit code and the sha256
of its stdout. `manifest.json` beside this file holds the records, with
the numpy version and the platform they were made under, and
`tests/test_golden.py` checks every op and script against it.

Regenerate the manifest only for a change that moves printed output on
purpose, and say in the change which ops moved and why. From the
repository root:

    PYTHONPATH=src python3 tests/golden/regenerate.py
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import platform
import runpy
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from graphsplit import cli

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "manifest.json"
ROOT = HERE.parent.parent
WORKLOADS = ROOT / "perfbench" / "workloads.py"
DEMOS = ROOT / "demos"
SEED = 1


def environment():
    """What the digests depend on beyond the code: numpy and the platform."""
    return {"numpy": np.__version__, "platform": f"{sys.platform}-{platform.machine()}"}


def load_workloads():
    """`perfbench/workloads.py`, loaded by path and read only."""
    spec = importlib.util.spec_from_file_location("golden_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def golden_ops():
    """(label, op) for every golden op, in run order."""
    workloads = load_workloads()
    ops = [
        (f"{name} {index}", op)
        for name, generator in workloads.GENERATORS.items()
        for index, op in enumerate(generator(SEED))
    ]
    ops.append(("demo all", workloads.Op("demo", ("all",))))
    ops.append(("verify --seed 1 --trials 20", workloads.Op("verify", ("--seed", "1", "--trials", "20"))))
    return ops


def _sha256(data):
    return None if data is None else hashlib.sha256(data).hexdigest()


def record(op, workdir):
    """Exit code and stdout and `--out` digests of one op run through cli.main."""
    config_path, out_path = workdir / "config.json", workdir / "out.txt"
    if op.config is not None:
        config_path.write_text(json.dumps(op.config), encoding="utf-8")
    out_path.unlink(missing_ok=True)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = cli.main(op.argv(str(config_path), str(out_path)))
    out = out_path.read_bytes() if out_path.exists() else None
    return {"exit": code, "stdout": _sha256(stdout.getvalue().encode()), "out": _sha256(out)}


def script_record(path):
    """Exit code and stdout digest of one demo script run in-process."""
    stdout = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(stdout), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            runpy.run_path(str(path), run_name="__main__")
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "stdout": _sha256(stdout.getvalue().encode())}


def records(workdir):
    """label -> record of every golden op, then of every demo script."""
    ops = {label: record(op, workdir) for label, op in golden_ops()}
    for path in sorted(DEMOS.glob("0*.py")):
        ops[f"demos/{path.name}"] = script_record(path)
    return ops


def main():
    with tempfile.TemporaryDirectory() as tmp:
        ops = records(Path(tmp))
    # One line per op, so that a moved op is one changed line.
    lines = ",\n".join(f"  {json.dumps(label)}: {json.dumps(rec)}" for label, rec in ops.items())
    text = f'{{\n "environment": {json.dumps(environment())},\n "ops": {{\n{lines}\n }}\n}}\n'
    MANIFEST.write_text(text, encoding="utf-8")
    print(f"{MANIFEST}: {len(ops)} records under {environment()}")


if __name__ == "__main__":
    main()
