"""In-memory span tracer that wraps graphsplit's public functions.

`Tracer.install` replaces every public function attribute of the traced
modules with a wrapper that records a span (name, start, end, parent span,
op id). Calls between the package's functions resolve through module
attributes or module globals, so nested calls are caught too. Aliases are
wrapped where they are bound: `experiments.fix_basis` is bound to
`splitting.fix_basis` at import, so it gets its own wrapper, and its spans
carry the same name with a different `binding`.

`layer_metrics` turns the spans of one pass into the per-layer metrics.
"""

import functools
import inspect
import time
from dataclasses import asdict, dataclass, field

import numpy as np

TRACED_MODULES = ("cli", "experiments", "splitting", "matlin", "graphs", "subspaces")


def _matrix_arg(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _gram_side(args, kwargs, result):
    # operator_norm forms the Gram matrix on the smaller side.
    return {"n3": min(np.shape(_matrix_arg(args, kwargs))) ** 3}


def _square_side(args, kwargs, result):
    return {"n3": np.shape(_matrix_arg(args, kwargs))[0] ** 3}


def _convergence(args, kwargs, result):
    return {"iterations": len(result.points) - 1, "unconverged": int(result.k_stop is None)}


# Extra per-span figures, computed from the call's arguments and result.
SPAN_COUNTERS = {
    "matlin.operator_norm": _gram_side,
    "matlin.general_eigenvalues": _square_side,
    "experiments.converge": _convergence,
}


@dataclass
class Span:
    id: int
    name: str  # <module>.<function> of the function's home module
    binding: str  # <module>.<attribute> the call went through
    parent: object  # id of the enclosing span, or None
    op: object  # op index within the pass
    start: float
    end: float = 0.0
    error: bool = False
    counts: dict = field(default_factory=dict)


class Tracer:
    """Collects spans while installed; `uninstall` restores the originals."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._saved = []

    def wrap(self, fn, name, binding):
        counter = SPAN_COUNTERS.get(name)

        def traced(*args, **kwargs):
            span = Span(
                id=len(self.spans),
                name=name,
                binding=binding,
                parent=self._stack[-1] if self._stack else None,
                op=self.op,
                start=time.perf_counter(),
            )
            self.spans.append(span)
            self._stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    def install(self, package):
        """Wrap the public functions of each traced module of `package`."""
        homes = {f"{package.__name__}.{m}" for m in TRACED_MODULES}
        for short in TRACED_MODULES:
            module = getattr(package, short)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ not in homes:
                    continue
                name = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__qualname__}"
                self._saved.append((module, attr, obj))
                setattr(module, attr, self.wrap(obj, name, f"{short}.{attr}"))

    def uninstall(self):
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()

    def records(self):
        return [asdict(span) for span in self.spans]


def self_times(spans):
    """Self time of each span: its duration minus the time its children cover.

    Children's intervals are clipped to the parent's and merged, so
    overlapping children are not subtracted twice.
    """
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.id] = (span.end - span.start) - covered
    return result


# Functions whose calls, inclusive time and self time are reported.
LAYER_FUNCTIONS = (
    "matlin.operator_norm",
    "matlin.symmetric_eigen",
    "matlin.general_eigenvalues",
    "matlin.null_space",
    "matlin.qr",
    "splitting.spectral_report",
    "splitting.certificates",
    "splitting.fix_basis",
    "splitting.build",
    "experiments.converge",
    "experiments.theta_sweep",
    "experiments.graph_equality_trials",
    "experiments.witness_search",
    "experiments.run_demo",
    "graphs.laplacian_factor",
    "subspaces.random_subspace",
    "subspaces.from_json",
    "cli.load_config",
    "cli.main",
)

# Extra counters summed over a function's spans.
LAYER_COUNTS = {
    "matlin.operator_norm": ("n3",),
    "matlin.general_eigenvalues": ("n3",),
    "experiments.converge": ("iterations", "unconverged"),
}


def _has_ancestor_named(span, by_id, name):
    parent = span.parent
    while parent is not None:
        ancestor = by_id[parent]
        if ancestor.name == name:
            return True
        parent = ancestor.parent
    return False


def _under(by_name, by_id, inner, outer):
    """Number of `inner` spans that have an `outer` span among their ancestors."""
    return sum(1 for span in by_name.get(inner, ()) if _has_ancestor_named(span, by_id, outer))


def layer_metrics(spans):
    """Per-layer figures of one pass: `<module>.<function>.{calls,s,self_s}` and counters.

    Inclusive time `s` sums only the outermost span of a function, so a
    recursive or re-entrant call is not counted twice.
    """
    by_id = {span.id: span for span in spans}
    by_name = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    own = self_times(spans)
    metrics = {}
    for name in LAYER_FUNCTIONS:
        mine = by_name.get(name, [])
        outermost = [span for span in mine if not _has_ancestor_named(span, by_id, name)]
        metrics[f"{name}.calls"] = len(mine)
        metrics[f"{name}.s"] = sum(span.end - span.start for span in outermost)
        metrics[f"{name}.self_s"] = sum(own[span.id] for span in mine)
        for key in LAYER_COUNTS.get(name, ()):
            metrics[f"{name}.{key}"] = sum(span.counts.get(key, 0) for span in mine)
    reports = metrics["splitting.spectral_report.calls"]
    sweeps = metrics["experiments.theta_sweep.calls"]
    norms = _under(by_name, by_id, "matlin.operator_norm", "splitting.spectral_report")
    metrics["splitting.norms_per_report"] = norms / reports if reports else 0.0
    swept_reports = _under(by_name, by_id, "splitting.spectral_report", "experiments.theta_sweep")
    swept_fix = _under(by_name, by_id, "splitting.fix_basis", "experiments.theta_sweep")
    metrics["experiments.reports_per_sweep"] = swept_reports / sweeps if sweeps else 0.0
    metrics["experiments.fix_basis_per_sweep"] = swept_fix / sweeps if sweeps else 0.0
    for module in TRACED_MODULES:
        metrics[f"{module}.errors"] = sum(
            1 for span in spans if span.error and span.name.startswith(module + ".")
        )
    return metrics


def per_layer_names():
    """Names of the per-layer metrics, in report order."""
    names = [f"{fn}.{key}" for fn in LAYER_FUNCTIONS for key in ("calls", "s", "self_s")]
    names += [f"{fn}.{key}" for fn, keys in LAYER_COUNTS.items() for key in keys]
    names += [
        "splitting.norms_per_report",
        "splitting.fix_dim_warnings",
        "experiments.reports_per_sweep",
        "experiments.fix_basis_per_sweep",
    ]
    names += [f"{module}.errors" for module in TRACED_MODULES]
    return names + ["trace.wall_s", "trace.overhead_s"]


def per_layer_unit(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_per_report") or name.endswith("_per_sweep"):
        return "ratio"
    return "count"
