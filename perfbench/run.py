"""Benchmark of the graphsplit command line on seeded closed-loop workloads.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

One caller in one process sends each `graphsplit.cli.main(argv)` call only
after the previous one has returned. The ops of a workload form a pass;
passes repeat while another pass fits in `--seconds`. With `--trace 0` the run
reports the end-to-end metrics; with `--trace 1` it alternates untraced and
traced passes and reports the per-layer metrics, including the tracing
overhead. Times are scaled to a fixed machine speed by a short reference
loop timed next to every op (see README.md). The last line of standard
output is one JSON object; the lines before it state the machine, a
reference loop timed at the start and end, the unscaled times, and every
metric with its unit and sample count. Spans and a result record go to
`.bench_out/` in the checkout.

The package is imported from `src/` of the checkout this file sits in.
"""

import os

# Pin BLAS before numpy is imported, here and in the set-up subprocesses.
PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in PINNED:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9
FIX_DIM_WARNING = "disagree with the fixed-subspace dimension"
REF_SIZE = 20
REF_STEPS = 20000
# Between two ops the runner times a short reference loop: a chunk of
# REF_CHUNK_STEPS steps. An op's time is scaled by REF_NOMINAL_S over the
# mean of the chunks just before and after it, which cancels the drift of a
# shared machine between slow and fast states.
REF_CHUNK_STEPS = 500
REF_NOMINAL_S = 0.0035

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "passed_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def import_package():
    """graphsplit from this checkout's `src/`, never an installed copy."""
    if not (SRC / "graphsplit" / "__init__.py").is_file():
        raise SystemExit(f"error: no graphsplit package under {SRC}")
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("graphsplit")
    if Path(package.__file__).resolve().parent != (SRC / "graphsplit").resolve():
        raise SystemExit(f"error: imported graphsplit from {package.__file__}, not {SRC}")
    for module in tracer.TRACED_MODULES:
        importlib.import_module(f"graphsplit.{module}")
    return package


def machine_info():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{var: os.environ[var] for var in PINNED},
    }


def reference_loop(steps=REF_STEPS):
    """Seconds for a fixed numpy loop; shows how fast the box is right now."""
    a = np.linspace(-1.0, 1.0, REF_SIZE * REF_SIZE).reshape(REF_SIZE, REF_SIZE) / REF_SIZE
    b = np.eye(REF_SIZE)
    start = time.perf_counter()
    for _ in range(steps):
        b = a @ b + np.eye(REF_SIZE)
    return time.perf_counter() - start


def scaled(seconds, ref_s):
    """`seconds` at the speed where a reference chunk takes REF_NOMINAL_S."""
    return seconds * REF_NOMINAL_S / ref_s


def measure_setup():
    """(seconds, reference chunk time around it) of each launch of a fresh
    interpreter, from the launch to `import graphsplit` done."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    child = "import graphsplit, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
    launches = []
    ref_before = reference_loop(REF_CHUNK_STEPS)
    for attempt in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", child], cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
        ) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line != "ready\n" or code != 0:
            raise SystemExit(f"error: set-up child exited {code} before importing graphsplit")
        ref_after = reference_loop(REF_CHUNK_STEPS)
        if attempt:  # the first launch may still compile bytecode
            launches.append((ready - start, (ref_before + ref_after) / 2))
        ref_before = ref_after
    return launches


@dataclass
class Outcome:
    seconds: float
    code: object  # exit code of cli.main, or None when it raised
    error: str
    fix_dim_warnings: int
    text: str = ""
    ref_before: float = REF_NOMINAL_S  # the reference chunks timed just before and after
    ref_after: float = REF_NOMINAL_S

    @property
    def scaled_seconds(self):
        return scaled(self.seconds, (self.ref_before + self.ref_after) / 2)


def run_op(cli, argv, out_path):
    """One timed `cli.main` call; warnings it emits are caught and counted."""
    out_path.unlink(missing_ok=True)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            code, error = cli.main(argv), ""
        except (Exception, SystemExit) as exc:
            code, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    count = sum(FIX_DIM_WARNING in str(w.message) for w in caught)
    outcome = Outcome(seconds, code, error, count)
    if out_path.exists():
        outcome.text = out_path.read_text(encoding="utf-8")
    return outcome


def run_pass(package, ops, files, trace=None):
    """All ops once, in order, with a reference chunk before each op and after
    the last. `trace`, when given, records spans of the ops meanwhile."""
    chunks = [reference_loop(REF_CHUNK_STEPS)]
    outcomes = []
    if trace is not None:
        trace.install(package)
    try:
        for index, (op, (config_path, out_path)) in enumerate(zip(ops, files)):
            if trace is not None:
                trace.op = index
            argv = op.argv(str(config_path), str(out_path))
            outcomes.append(run_op(package.cli, argv, out_path))
            chunks.append(reference_loop(REF_CHUNK_STEPS))
    finally:
        if trace is not None:
            trace.uninstall()
    for index, outcome in enumerate(outcomes):
        outcome.ref_before, outcome.ref_after = chunks[index], chunks[index + 1]
    return outcomes


def write_inputs(ops, workdir):
    workdir.mkdir(parents=True, exist_ok=True)
    files = []
    for index, op in enumerate(ops):
        config_path = workdir / f"op{index:04d}.json"
        if op.config is not None:
            config_path.write_text(json.dumps(op.config), encoding="utf-8")
        files.append((config_path, workdir / f"op{index:04d}.out"))
    return files


def check_outputs(package, workload, ops, passes):
    """Failed op runs and the first problems found.

    A run fails when the call raised or exited non-zero, when its output
    differs from the first pass's, or when the oracle rejects that output.
    """
    oracle = oracles.ORACLES[workload]
    failed = 0
    problems = []
    for index, op in enumerate(ops):
        first = passes[0][index]
        verdict = []
        if first.code == 0:
            try:
                verdict = oracle(package, op, first.text)
            except Exception as exc:  # a malformed output must not stop the check
                verdict = [f"oracle raised {type(exc).__name__}: {exc}"]
        for outcome in (run[index] for run in passes):
            if outcome.code != 0:
                why = [f"exit {outcome.code} {outcome.error}".strip()]
            elif outcome.text != first.text:
                why = ["output differs between passes"]
            else:
                why = verdict
            if why:
                failed += 1
                problems.append(f"op {index} ({op.command} {' '.join(op.args)}): {why[0]}")
    return failed, problems


def betainc(a, b, x):
    """Regularized incomplete beta function I_x(a, b), by its continued
    fraction (modified Lentz), on the side of x where it converges fast."""
    if x <= 0.0 or x >= 1.0:
        return 0.0 if x <= 0.0 else 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - betainc(b, a, 1.0 - x)
    log_front = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    front = math.exp(log_front + a * math.log(x) + b * math.log1p(-x)) / a
    tiny = 1e-300
    c, d, f = 1.0, 0.0, 1.0
    for i in range(1000):
        m = i // 2
        if i == 0:
            term = 1.0
        elif i % 2 == 0:
            term = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        else:
            term = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        d = 1.0 + term * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + term / (c if abs(c) > tiny else tiny)
        f *= c * d
        if abs(1.0 - c * d) < 1e-14:
            return front * (f - 1.0)
    raise ArithmeticError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile of `values`.

    A mean of all order statistics, weighted by a beta distribution centred
    on p. The op times of a workload cluster by size, and a quantile read
    from one or two order statistics jumps from one cluster to the next when
    it falls in the gap between them; this estimate moves smoothly instead.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    edges = np.array([betainc(a, b, i / n) for i in range(n + 1)])
    return float(np.diff(edges) @ x)


def _repeat(step, seconds):
    """Call `step` at least once, and again while another call fits in `seconds`."""
    results = []
    start = time.perf_counter()
    while True:
        before = time.perf_counter()
        results.append(step())
        now = time.perf_counter()
        if now - start + (now - before) > seconds:
            return results


def timed_run(package, ops, files, seconds):
    return _repeat(lambda: run_pass(package, ops, files), seconds)


def traced_run(package, ops, files, seconds):
    """Pairs of an untraced and a traced pass; returns (plain, traced, traces)."""

    def pair():
        trace = tracer.Tracer()
        plain = run_pass(package, ops, files)
        return plain, run_pass(package, ops, files, trace), trace

    pairs = _repeat(pair, seconds)
    return [p[0] for p in pairs], [p[1] for p in pairs], [p[2] for p in pairs]


def timing_figures(passes, seconds):
    """Pass time, median and 90th-percentile op time, each op timed by `seconds`."""
    latencies = [seconds(outcome) for run in passes for outcome in run]
    return (
        statistics.median(sum(seconds(o) for o in run) for run in passes),
        quantile(latencies, 0.5),
        quantile(latencies, 0.9),
    )


def end_to_end_metrics(passes, setup_s, failed, attempted):
    wall, p50, p90 = timing_figures(passes, lambda o: o.scaled_seconds)
    values = {
        "setup_s": setup_s,
        "wall_s": wall,
        "op_p50_s": p50,
        "op_p90_s": p90,
        "passed_ratio": 1.0 - failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def layer_results(plain, traced, traces):
    per_pass = []
    for run, trace in zip(traced, traces):
        metrics = tracer.layer_metrics(trace.spans)
        metrics["splitting.fix_dim_warnings"] = sum(o.fix_dim_warnings for o in run)
        metrics["trace.wall_s"] = sum(o.scaled_seconds for o in run)
        per_pass.append(metrics)
    plain_wall = statistics.median(sum(o.scaled_seconds for o in run) for run in plain)
    # median_low keeps every figure a value one pass measured (counts stay whole).
    values = {name: statistics.median_low(m[name] for m in per_pass) for name in per_pass[0]}
    values["trace.overhead_s"] = values["trace.wall_s"] - plain_wall
    return {name: (values[name], tracer.per_layer_unit(name)) for name in tracer.per_layer_names()}


def write_spans(path, traces):
    with path.open("w", encoding="utf-8") as fh:
        for pass_index, trace in enumerate(traces):
            for record in trace.records():
                fh.write(json.dumps({"pass": pass_index, **record}) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package = import_package()
    machine = machine_info()
    # One CPU for the ops, the reference chunks and the set-up children, so
    # that a chunk meets the same CPU's state as the work next to it.
    machine["pinned_cpu"] = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {machine["pinned_cpu"]})
    ref_start = reference_loop()
    ops = workloads.GENERATORS[args.workload](args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    files = write_inputs(ops, OUT / tag)
    setup_launches = [] if args.trace else measure_setup()

    run_pass(package, ops[:1], files[:1])  # warm-up: lazy imports, first-call paths
    if args.trace:
        plain, traced, traces = traced_run(package, ops, files, args.seconds)
        passes = plain + traced
    else:
        passes = timed_run(package, ops, files, args.seconds)
    failed, problems = check_outputs(package, args.workload, ops, passes)
    attempted = len(ops) * len(passes)
    if args.trace:
        metrics = layer_results(plain, traced, traces)
        write_spans(OUT / f"{tag}.spans.jsonl", traces)
    else:
        setup_s = statistics.median(scaled(*launch) for launch in setup_launches)
        metrics = end_to_end_metrics(passes, setup_s, failed, attempted)
    ref_end = reference_loop()

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(passes)} passes of {len(ops)} ops, {failed} of {attempted} failed "
          f"(failed_ratio {failed / attempted:.6g})")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()))
    print(f"reference loop ({REF_STEPS} steps of a {REF_SIZE}x{REF_SIZE} matmul): "
          f"start {ref_start:.4f} s, end {ref_end:.4f} s")
    for problem in problems[:10]:
        print(f"FAILED {problem}")
    raw = timing_figures(passes, lambda o: o.seconds)
    unscaled = dict(zip(("wall_s", "op_p50_s", "op_p90_s"), raw))
    if setup_launches:
        unscaled["setup_s"] = statistics.median(seconds for seconds, _ in setup_launches)
    print("unscaled: " + ", ".join(f"{name} {value:.6g} s" for name, value in unscaled.items()))
    for name, (value, unit) in metrics.items():
        samples = f" (n={attempted})" if name in ("op_p50_s", "op_p90_s") else ""
        print(f"{name} {value:.6g} {unit}{samples}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "ops_per_pass": len(ops),
        "machine": machine,
        "reference_loop_s": {"start": ref_start, "end": ref_end},
        "unscaled_s": unscaled,
        "problems": problems,
        "op_seconds": [[o.seconds for o in run] for run in passes],
        "ref_chunk_seconds": [[run[0].ref_before] + [o.ref_after for o in run] for run in passes],
        "setup_launch_seconds": setup_launches,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
