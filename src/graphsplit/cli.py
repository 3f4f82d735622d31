"""Command-line front end: JSON configs in, JSON/CSV reports out.

Four subcommands cover the library surface: `analyze` prints the spectral
and structural certificates of a configured operator, with 0 for a defect
under its round-off floor 2 N eps (1 + ||T||_F^2), `sweep` emits one CSV
row per relaxation parameter, `demo` replays the golden worked examples,
and `verify` runs the randomized graph-pair consistency check. All output
is deterministic for a fixed config and seed; floats are printed with 12
significant digits.

The config format lives here alone: `load_config` reads each field once,
and bounds each size as it reads it, before anything is built from it.
Each error names its field and what the format expects there.

Exit status: 0 on success, 1 when a check fails, 2 on configuration errors
and on an `--out` path that cannot be written, 3 on an internal numerical
failure (a failed self-check, an eigensolver that does not converge).
"""

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import experiments, graphs, matlin, splitting, subspaces
from ._json import integer, known_fields, real, reals
from ._rng import SplitMix64

MAX_THETAS = 10_000  # values a thetas range may expand to
MAX_SIZE = 1000  # the largest graph.n, subgraph.n, ambient and lifted size (n - 1) * ambient
_CONFIG_FIELDS = ("graph", "subgraph", "ambient", "spaces", "thetas", "eps", "k_max", "seed", "v0")
_RANGE_FIELDS = ("start", "stop", "step")


def _fmt(x):
    return f"{float(x):.12g}"


def _sig12(x):
    return float(_fmt(x))


@dataclass
class ExperimentConfig:
    graph_pair: graphs.GraphPair
    spaces: subspaces.ProductSubspace
    thetas: list
    eps: float
    k_max: int
    seed: int
    v0: object  # numpy vector or the string "random"


def _number(field, value, kind=real):
    """value as a finite float (an int when kind is integer), or a ValueError naming field."""
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        expected = "an integer" if kind is integer else "a finite number"
        raise ValueError(f"{field}: expected {expected}, got {value!r}") from exc
    if kind is real and not math.isfinite(number):  # an int of 400 digits overflows isfinite
        raise ValueError(f"{field}: expected a finite number, got {value!r}")
    return number


def _known_fields(field, obj, fields):
    """known_fields, with a ValueError naming the object's field."""
    try:
        known_fields(obj, fields)
    except ValueError as exc:
        raise ValueError(f"{field}: {exc}") from None


def _graph(field, obj):
    """The graph of a config field: {"preset": name, "n": k} or
    {"n": k, "edges": [[i, j], ...]}, with any other field an error. n is
    bounded by MAX_SIZE before the graph is built; each error names field."""
    if not isinstance(obj, dict):
        raise ValueError(f"{field}: graph fragment must be an object")
    if "preset" in obj:
        _known_fields(field, obj, ("preset", "n"))
        if "n" not in obj:
            raise ValueError(f'{field}: preset graph fragment needs "n"')
    else:
        _known_fields(field, obj, ("n", "edges"))
        if "edges" not in obj or "n" not in obj:
            raise ValueError(f'{field}: graph fragment needs either "preset"/"n" or "n"/"edges"')
        edges = obj["edges"]
        if not isinstance(edges, list) or not all(isinstance(e, list) and len(e) == 2 for e in edges):
            raise ValueError(f"{field}.edges: expected a list of [i, j] pairs")
        edges = [[_number(f"{field}.edges", v, integer) for v in e] for e in edges]
    n = _number(f"{field}.n", obj["n"], integer)
    if n > MAX_SIZE:  # nothing is built
        raise ValueError(f"{field}.n: must be at most {MAX_SIZE}")
    try:
        if "preset" in obj:
            return graphs.preset(obj["preset"], n)
        return graphs.AlgorithmicGraph(n, edges)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{field}: {exc}") from exc


def _space(field, obj, ambient):
    """The subspace of R^ambient of a config field, by its kind: span (a list
    of vectors), hyperplane (a normal vector), random (dim and seed), full or
    trivial. A field the kind does not take, or lacks, is an error; each
    error names field."""
    kind_fields = {
        "span": ("vectors",),
        "hyperplane": ("normal",),
        "random": ("dim", "seed"),
        "full": (),
        "trivial": (),
    }

    def vector(value, what):
        if not isinstance(value, list) or len(value) != ambient:
            raise ValueError(f"{what} must be a list of {ambient} numbers")
        try:
            return np.array([real(x) for x in value])
        except ValueError as exc:
            raise ValueError(f"{what}: {exc}") from None

    try:
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ValueError('subspace fragment must be an object with a "kind"')
        kind = obj["kind"]
        if not isinstance(kind, str) or kind not in kind_fields:
            raise ValueError(f"unknown subspace kind {kind!r}")
        known_fields(obj, ("kind", *kind_fields[kind]))
        for name in kind_fields[kind]:
            if name not in obj:
                raise ValueError(f'{kind} subspace needs "{name}"')
        if kind == "span":
            if not isinstance(obj["vectors"], list):
                raise ValueError("span vectors must be a list of vectors")
            vectors = [vector(v, "span vector") for v in obj["vectors"]]
            return subspaces.from_generators(vectors, ambient)
        if kind == "hyperplane":
            return subspaces.hyperplane(vector(obj["normal"], "hyperplane normal"))
        if kind == "random":
            return subspaces.random_subspace(ambient, integer(obj["dim"]), integer(obj["seed"]))
        return subspaces.full(ambient) if kind == "full" else subspaces.trivial(ambient)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{field}: {exc}") from exc


def _expand_thetas(spec):
    if isinstance(spec, dict):
        _known_fields("thetas", spec, _RANGE_FIELDS)
        for key in _RANGE_FIELDS:
            if key not in spec:
                raise ValueError(f'thetas: missing "{key}" in range form')
        start, stop, step = (_number(f"thetas.{key}", spec[key]) for key in _RANGE_FIELDS)
        if step <= 0.0:
            raise ValueError("thetas: step must be positive")
        # Bounded, since start + k * step need not grow: 1.0 + 1e-20 == 1.0.
        values = []
        for k in range(MAX_THETAS + 1):
            theta = start + k * step
            if theta > stop + 1e-9:
                return values
            values.append(theta)
        raise ValueError(f"thetas: range gives more than {MAX_THETAS} values")
    if isinstance(spec, list):
        return [_number("thetas", t) for t in spec]
    raise ValueError("thetas: expected a list or {start, stop, step}")


def load_config(obj, seed=None, eps=None):
    """Build an ExperimentConfig from a decoded JSON object.

    Each field is read once, in this order: graph, whose n is bounded
    before it is built; ambient, then the lifted size (graph.n - 1) * ambient;
    subgraph; then spaces, thetas, eps, k_max, seed and v0. Every size is
    bounded by MAX_SIZE before anything is built from it, and an error names
    the first bad field read. Command-line --seed and --eps take precedence
    over the file values.
    """
    if not isinstance(obj, dict):
        raise ValueError("config: top level must be an object")
    _known_fields("config", obj, _CONFIG_FIELDS)
    if "graph" not in obj:
        raise ValueError('config: missing "graph"')
    g = _graph("graph", obj["graph"])
    if "ambient" not in obj:
        raise ValueError('config: missing "ambient"')
    ambient = _number("ambient", obj["ambient"], integer)
    if ambient < 1:
        raise ValueError("ambient: must be at least 1")
    if ambient > MAX_SIZE:
        raise ValueError(f"ambient: must be at most {MAX_SIZE}")
    lifted = (g.n - 1) * ambient
    if lifted > MAX_SIZE:
        raise ValueError(
            f"ambient: the lifted size (graph.n - 1) * ambient = {lifted} is above {MAX_SIZE}"
        )
    gp = _graph("subgraph", obj["subgraph"]) if "subgraph" in obj else None
    try:
        pair = graphs.pair(g, gp)
    except ValueError as exc:
        raise ValueError(f"subgraph: {exc}") from exc

    fragments = obj.get("spaces")
    if not isinstance(fragments, list) or len(fragments) != g.n:
        raise ValueError(f"spaces: need a list of exactly {g.n} subspace fragments")
    factors = [
        _space(f"spaces[{idx}]", fragment, ambient) for idx, fragment in enumerate(fragments, start=1)
    ]

    thetas = _expand_thetas(obj.get("thetas", []))
    for theta in thetas:
        if not 0.0 < theta < 2.0:
            raise ValueError(f"thetas: {theta} outside the open interval (0, 2)")

    eps_value = _number("eps", eps if eps is not None else obj.get("eps", experiments.DEFAULT_EPS))
    if eps_value <= 0.0:
        raise ValueError("eps: must be positive")
    k_max = _number("k_max", obj.get("k_max", experiments.DEFAULT_K_MAX), integer)
    if k_max < 1:
        raise ValueError("k_max: must be at least 1")
    seed_value = _number("seed", seed if seed is not None else obj.get("seed", 0), integer)

    v0 = obj.get("v0", "random")
    if v0 != "random":
        try:
            values = reals(v0)
        except ValueError as exc:
            raise ValueError(f"v0: expected a list of numbers: {exc}") from exc
        try:
            flat = np.asarray(values, dtype=float).ravel()
        except ValueError as exc:  # lists of unequal lengths
            raise ValueError("v0: expected a list of numbers, or of equal-length lists") from exc
        with np.errstate(over="ignore"):  # 1e200 is finite, but its square is not
            if not math.isfinite(flat @ flat):
                raise ValueError("v0: entries and their squared norm must be finite")
        if flat.shape[0] != lifted:
            raise ValueError(f"v0: expected {lifted} numbers, got {flat.shape[0]}")
        v0 = flat

    return ExperimentConfig(
        graph_pair=pair,
        spaces=subspaces.product(factors),
        thetas=thetas,
        eps=eps_value,
        k_max=k_max,
        seed=seed_value,
        v0=v0,
    )


def _start_vector(config, op):
    if isinstance(config.v0, str):
        return SplitMix64(config.seed).normals(op.size)
    return config.v0


def cmd_analyze(config):
    """Spectral report of the configured operator as a JSON-ready dict."""
    op = splitting.build(config.graph_pair, config.spaces)
    report = splitting.spectral_report(op.T)
    # Each field is computed as it is read, in this order: the defects and
    # their verdicts, then the fixed basis and the spectrum.
    out = {
        "normality_defect": _sig12(report.normality_defect),
        "iso_defect": _sig12(report.iso_defect),
        "is_normal": report.is_normal,
        "is_iso_averaged": report.is_iso_averaged,
        "eigenvalues": [
            {"re": re, "im": im}
            for re, im in sorted((_sig12(lam.real), _sig12(lam.imag)) for lam in report.eigenvalues)
        ],
        "rho1": _sig12(report.rho1),
        "fix_dim": report.fix_dim,
    }
    if op.n == 2:
        out["friedrichs_cosine"] = _sig12(
            subspaces.friedrichs_cosine(config.spaces.factors[0], config.spaces.factors[1])
        )
    return out


def cmd_sweep(config):
    """CSV text: one convergence run per configured relaxation parameter."""
    op = splitting.build(config.graph_pair, config.spaces)
    v0 = _start_vector(config, op)
    records = experiments.theta_sweep(op, config.thetas, v0, eps=config.eps, k_max=config.k_max)
    lines = ["theta,k_stop,rho1_predicted,rho1_measured"]
    for rec in records:
        k_stop = "" if rec.k_stop is None else str(rec.k_stop)
        measured = "" if rec.rho1_measured is None else _fmt(rec.rho1_measured)
        lines.append(f"{_fmt(rec.theta)},{k_stop},{_fmt(rec.rho1_predicted)},{measured}")
    return "\n".join(lines) + "\n"


def _demo_text(report):
    lines = [f"example {report.name}: {'PASS' if report.passed else 'FAIL'}"]
    for line in report.lines:
        tag = "pass" if line.passed else "FAIL"
        lines.append(f"  [{tag}] {line.label}: measured {line.measured}, expected {line.expected}")
    return lines


def cmd_demo(name):
    """Replay golden examples; returns (text, all_passed)."""
    names = experiments.demo_names() if name == "all" else [name]
    out = []
    ok = True
    for demo_name in names:
        report = experiments.run_demo(demo_name)
        ok = ok and report.passed
        out.extend(_demo_text(report))
    return "\n".join(out) + "\n", ok


def cmd_verify(seed, trials):
    """Randomized graph-pair consistency report; returns (text, all_consistent)."""
    records = experiments.graph_equality_trials(seed, trials)
    lines = []
    total = good = 0
    by_pair = {}
    for rec in records:
        by_pair.setdefault(rec.pair_name, []).append(rec)
    for pair_name, recs in by_pair.items():
        n_ok = sum(r.consistent for r in recs)
        total += len(recs)
        good += n_ok
        relation = "G = G'" if recs[0].same else "G != G'"
        lines.append(f"pair {pair_name} ({relation}): {n_ok}/{len(recs)} trials consistent")
    lines.append(
        f"summary: {good}/{total} trials consistent with the graph-equality characterization"
    )
    return "\n".join(lines) + "\n", good == total


def _read_config(path, seed=None, eps=None):
    try:
        if path is None:
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise ValueError(f"config: cannot read {path!r}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    except ValueError as exc:  # an integer literal above Python's int-string limit
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"config: an integer literal has more than {limit} digits") from exc
    return load_config(obj, seed=seed, eps=eps)


def _emit(text, out_path):
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"--out: cannot write {out_path!r}: {exc}") from exc


@functools.cache
def _parser():
    # Built once per process: an ArgumentParser is a web of reference cycles,
    # so one per call leaves garbage that only the cyclic collector frees.
    parser = argparse.ArgumentParser(
        prog="graphsplit",
        description="Graph splitting operators on subspaces: certificates, sweeps, examples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("analyze", "print the spectral/structural report of a configured operator"),
        ("sweep", "CSV of stop iteration and rates per relaxation parameter"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="config JSON path (default: standard input)")
        if name == "sweep":
            cmd.add_argument("--seed", type=int, help="override the config seed")
            cmd.add_argument("--eps", type=float, help="override the config stopping tolerance")
        cmd.add_argument("--out", help="write output to this path instead of stdout")

    demo = sub.add_parser("demo", help="replay a golden worked example (or 'all')")
    demo.add_argument("name")
    demo.add_argument("--out", help="write output to this path instead of stdout")

    verify = sub.add_parser("verify", help="randomized graph-pair consistency check")
    verify.add_argument("--seed", type=int, default=1)
    verify.add_argument("--trials", type=int, default=20)
    verify.add_argument("--out", help="write output to this path instead of stdout")
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        if args.command == "analyze":
            config = _read_config(args.config)
            _emit(json.dumps(cmd_analyze(config), indent=2) + "\n", args.out)
            return 0
        if args.command == "sweep":
            config = _read_config(args.config, args.seed, args.eps)
            _emit(cmd_sweep(config), args.out)
            return 0
        if args.command == "demo":
            text, ok = cmd_demo(args.name)
            _emit(text, args.out)
            return 0 if ok else 1
        text, ok = cmd_verify(args.seed, args.trials)
        _emit(text, args.out)
        return 0 if ok else 1
    except (matlin.NoConvergenceError, splitting.SelfCheckFailedError) as exc:
        print(f"error: internal numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
