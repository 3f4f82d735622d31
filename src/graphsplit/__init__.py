"""Graph splitting operators for intersections of linear subspaces.

Build the fixed-point map of a graph-based splitting method from a graph
pair and one subspace per node, certify whether it is normal or the
average of an isometry and the identity, compute exact and empirical
linear convergence rates under relaxation, and replay the worked examples
that separate the well-behaved constructions from the pathological ones.
"""

from . import experiments, graphs, matlin, splitting, subspaces
from .experiments import (
    ConvergenceTrace,
    SweepRecord,
    converge,
    convexity_check,
    graph_equality_trials,
    monotonicity_check,
    random_operator,
    run_demo,
    symmetry_check,
    theta_sweep,
    three_lines_example,
    witness_search,
)
from .graphs import AlgorithmicGraph, GraphPair, incidence, laplacian_factor, pair, preset, validate
from .splitting import (
    SpectralReport,
    SplittingOperator,
    apply_iterative,
    build,
    certificates,
    dr_rate,
    predicted_rate,
    rebase,
    relax,
    spectral_report,
)
from .subspaces import (
    ProductSubspace,
    Subspace,
    complement,
    coordinate_product,
    friedrichs_cosine,
    from_generators,
    full,
    hyperplane,
    intersect,
    product,
    random_subspace,
    trivial,
)

__version__ = "0.1.0"

__all__ = [
    "AlgorithmicGraph",
    "ConvergenceTrace",
    "GraphPair",
    "ProductSubspace",
    "SpectralReport",
    "SplittingOperator",
    "Subspace",
    "SweepRecord",
    "apply_iterative",
    "build",
    "certificates",
    "complement",
    "converge",
    "convexity_check",
    "coordinate_product",
    "dr_rate",
    "experiments",
    "friedrichs_cosine",
    "from_generators",
    "full",
    "graph_equality_trials",
    "graphs",
    "hyperplane",
    "incidence",
    "intersect",
    "laplacian_factor",
    "matlin",
    "monotonicity_check",
    "pair",
    "predicted_rate",
    "preset",
    "product",
    "random_operator",
    "random_subspace",
    "rebase",
    "relax",
    "run_demo",
    "spectral_report",
    "splitting",
    "subspaces",
    "symmetry_check",
    "theta_sweep",
    "three_lines_example",
    "trivial",
    "validate",
    "witness_search",
]
